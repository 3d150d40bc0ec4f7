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
    evaluate_sizes,
    inplace_aliases,
    liveness_peak,
    liveness_peak_aliased,
    memory_greedy_order,
    topological_order,
)
from ..models.base import BuiltModel
from ..obs.tracer import TRACER as _TRACER

__all__ = ["FootprintEstimate", "estimate_footprint",
           "GREEDY_OP_LIMIT"]

#: graphs with more ops than this skip the greedy schedule and report
#: the program-order bound.  Sweeps pay the greedy pass once per point,
#: and it grows with the graph: char_lm and speech have about 46k ops
#: each, the other registry graphs at most 6k.  The goldens record
#: program order for those two domains.
GREEDY_OP_LIMIT = 20_000


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
                       inplace: bool = False) -> FootprintEstimate:
    """Evaluate footprint bounds for one concrete configuration.

    ``bindings`` must bind the model's size symbol and subbatch.  Set
    ``use_greedy=False`` to skip the greedy schedule on very large
    graphs (the program-order bound is then reported for both).
    ``inplace=True`` applies the §4.5 TensorFlow optimization: eligible
    pointwise ops reuse their input's buffer.

    Tensors are sized through the graph's compiled size program and
    the greedy schedule is the incremental one; tests hold both to
    the seed oracles in :mod:`repro.graph.traversal`.
    """
    graph = model.graph
    with _TRACER.span("analysis.footprint", "footprint",
                      graph=graph.name, use_greedy=use_greedy):
        return _estimate_footprint(graph, bindings, use_greedy, inplace)


def _estimate_footprint(graph, bindings, use_greedy,
                        inplace) -> FootprintEstimate:
    sizes = evaluate_sizes(graph, bindings)

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
        greedy_order = memory_greedy_order(graph, sizes)
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
