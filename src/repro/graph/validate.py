"""Structural validation of compute graphs.

Run after model construction (and in tests) to catch wiring mistakes
early: dangling tensors, producer/consumer inconsistencies, cycles, and
per-op shape-rule violations.

The checks themselves live in :mod:`repro.check.structure` (the
structural pass of the static analyzer), where each invariant carries a
stable rule code; this module keeps the raising construction-time API.
"""

from __future__ import annotations

from typing import List

from ..errors import ReproError
from .graph import Graph

__all__ = ["validate_graph", "GraphValidationError"]


class GraphValidationError(ReproError, ValueError):
    """Raised when a graph fails structural validation (code E-GRAPH)."""

    code = "E-GRAPH"

    def __init__(self, graph_name: str, problems: List[str]):
        self.problems = list(problems)
        joined = "\n  - ".join(self.problems)
        super().__init__(
            f"graph {graph_name!r} failed validation:\n  - {joined}",
            hint="run `python -m repro.check` for the rule codes behind "
                 "each finding",
        )
        self.add_context(graph=graph_name)


def validate_graph(graph: Graph, *, allow_unconsumed: bool = True) -> None:
    """Check structural invariants; raise GraphValidationError on failure.

    Invariants (see :mod:`repro.check.structure` for the rule codes):
    * every non-input, non-parameter tensor has a producer op;
    * consumer lists match op input lists exactly;
    * every op reads only tensors produced by earlier ops;
    * each op passes its own ``validate`` (shape rules);
    * optionally, every activation is consumed (no dead computation).
    """
    # late import: repro.check depends on repro.graph
    from ..check.structure import structural_diagnostics

    diagnostics = structural_diagnostics(
        graph, allow_unconsumed=allow_unconsumed
    )
    if diagnostics:
        raise GraphValidationError(
            graph.name, [d.message for d in diagnostics]
        )
