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
    memory_greedy_order,
    topological_order,
)
from ..graph.traversal import liveness_bounds
from ..models.base import BuiltModel
from ..obs.tracer import TRACER as _TRACER

__all__ = ["FootprintEstimate", "estimate_footprint",
           "GREEDY_OP_LIMIT"]

#: graphs with more ops than this skip the greedy schedule and report
#: the program-order bound (:func:`estimate_footprint` decides).  Sweeps pay the greedy pass once per point,
#: and it grows with the graph: char_lm and speech have about 46k ops
#: each at registry length, the other registry graphs at most 6k.  The
#: goldens record program order for those two domains, and sweeps read
#: their counts and program-order footprints from a fold over short
#: unrolls (:mod:`repro.analysis.fold`) instead of building them.
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


def estimate_footprint(model: BuiltModel,
                       bindings: Optional[Mapping] = None, *,
                       inplace: bool = False) -> FootprintEstimate:
    """Evaluate footprint bounds for one concrete configuration.

    ``bindings`` must bind the model's size symbol and subbatch.  The
    greedy schedule runs on graphs of at most ``GREEDY_OP_LIMIT`` ops;
    on larger ones the program-order bound is reported for both.
    ``inplace=True`` applies the §4.5 TensorFlow optimization: eligible
    pointwise ops reuse their input's buffer.

    Tensors are sized through the graph's compiled size program and
    the greedy schedule is the incremental one; tests hold both to
    the seed oracles in ``tests/oracles.py``.
    """
    graph = model.graph
    use_greedy = len(graph.ops) <= GREEDY_OP_LIMIT
    with _TRACER.span("analysis.footprint", "footprint",
                      graph=graph.name, use_greedy=use_greedy):
        return _estimate_footprint(graph, bindings, use_greedy, inplace)


def _estimate_footprint(graph, bindings, use_greedy,
                        inplace) -> FootprintEstimate:
    sizes = evaluate_sizes(graph, bindings)
    aliases = inplace_aliases(graph) if inplace else None
    program = liveness_peak(graph, topological_order(graph), sizes,
                            aliases=aliases)
    if use_greedy:
        greedy = liveness_peak(graph, memory_greedy_order(graph, sizes),
                               sizes, aliases=aliases)
    else:
        greedy = program
    persistent, working_set = liveness_bounds(graph, sizes)

    return FootprintEstimate(
        program_order_bytes=program,
        greedy_bytes=greedy,
        persistent_bytes=persistent,
        lower_bound_bytes=persistent + working_set,
    )
