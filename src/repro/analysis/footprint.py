"""Minimal memory footprint estimation (§2.1 / §4.5 / Figure 10).

The paper defines algorithmic memory footprint as the minimum, over all
correct topological traversals, of the peak live-tensor memory.  We
bound it from above with two schedules (framework-style program order,
and a memory-greedy order) and take the better, exactly the
"topological traversal estimates" of Figure 10.  A lower bound —
persistent weights + the largest single op working set — brackets the
estimate for validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from ..graph import (
    Graph,
    evaluate_sizes,
    inplace_aliases,
    liveness_peak,
    liveness_peak_aliased,
    memory_greedy_order,
    topological_order,
)
from ..graph.traversal import (
    _evaluate_sizes_treewalk,
    _memory_greedy_order_reference,
)
from ..models.base import BuiltModel
from ..obs.tracer import TRACER as _TRACER

__all__ = ["FootprintEstimate", "estimate_footprint"]


@dataclass
class FootprintEstimate:
    """Footprint bounds for one binding of a model's symbols."""

    #: peak bytes under plain program-order traversal
    program_order_bytes: int
    #: peak bytes under the memory-greedy schedule
    greedy_bytes: int
    #: persistent bytes (weights + inputs), always resident
    persistent_bytes: int
    #: lower bound: persistent + max single-op working set
    lower_bound_bytes: int

    @property
    def minimal_bytes(self) -> int:
        """Best (smallest) traversal estimate — the Fig. 10 quantity."""
        return min(self.program_order_bytes, self.greedy_bytes)

    @property
    def scheduler_gain(self) -> float:
        """Footprint saved by memory-greedy scheduling vs program order."""
        if self.program_order_bytes == 0:
            return 0.0
        return 1.0 - self.greedy_bytes / self.program_order_bytes


def estimate_footprint(model: BuiltModel,
                       bindings: Optional[Mapping] = None, *,
                       use_greedy: bool = True,
                       inplace: bool = False,
                       engine: str = "compiled") -> FootprintEstimate:
    """Evaluate footprint bounds for one concrete configuration.

    ``bindings`` must bind the model's size symbol and subbatch.  Set
    ``use_greedy=False`` to skip the greedy schedule on very large
    graphs (the program-order bound is then reported for both).
    ``inplace=True`` applies the §4.5 TensorFlow optimization: eligible
    pointwise ops reuse their input's buffer.

    ``engine`` selects the evaluation path: ``"compiled"`` (default)
    sizes tensors through the batch-compiled tape and schedules with
    the incremental greedy; ``"treewalk"`` is the seed recursive-evalf
    / rescan path, kept as the benchmark baseline and behavioral
    oracle — both produce identical estimates.
    """
    if engine not in ("compiled", "treewalk"):
        raise ValueError(f"unknown footprint engine {engine!r}")
    graph = model.graph
    with _TRACER.span("analysis.footprint", "footprint",
                      graph=graph.name, engine=engine,
                      use_greedy=use_greedy):
        return _estimate_footprint(graph, bindings, use_greedy,
                                   inplace, engine)


def _estimate_footprint(graph, bindings, use_greedy, inplace,
                        engine) -> FootprintEstimate:
    if engine == "treewalk":
        sizes = _evaluate_sizes_treewalk(graph, bindings)
        greedy_schedule = _memory_greedy_order_reference
    else:
        sizes = evaluate_sizes(graph, bindings)
        greedy_schedule = memory_greedy_order

    persistent = sum(
        sizes[t] for t in graph.tensors.values()
        if t.is_persistent or t.producer is None
    )

    aliases = inplace_aliases(graph) if inplace else None
    order = topological_order(graph)
    if aliases:
        program = liveness_peak_aliased(graph, order, sizes, aliases)
    else:
        program = liveness_peak(graph, order, sizes)
    if use_greedy:
        greedy_order = greedy_schedule(graph, sizes)
        if aliases:
            greedy = liveness_peak_aliased(graph, greedy_order, sizes,
                                           aliases)
        else:
            greedy = liveness_peak(graph, greedy_order, sizes)
    else:
        greedy = program

    working_set = 0
    for op in graph.ops:
        local = sum(
            sizes[t] for t in set(op.inputs) | set(op.outputs)
            if not (t.is_persistent or t.producer is None)
        )
        working_set = max(working_set, local)

    return FootprintEstimate(
        program_order_bytes=program,
        greedy_bytes=greedy,
        persistent_bytes=persistent,
        lower_bound_bytes=persistent + working_set,
    )
