"""Structural pass: the former ``graph/validate.py`` checks as lint.

``repro.graph.validate_graph`` now delegates here — the same
invariants produce :class:`~repro.check.diagnostics.Diagnostic`
records for the lint driver and raise ``GraphValidationError`` for the
legacy construction-time API.

The consumer/input consistency check merges both directions (a tensor
registering a consumer that does not read it, and an op reading a
tensor it is not registered on) into **one** finding per broken
op/tensor pair: a single rewired edge used to produce two diagnostics,
one from each side.
"""

from __future__ import annotations

from typing import Dict, List

from ..graph.graph import Graph
from ..graph.op import Op
from ..graph.tensor import Tensor
from .diagnostics import Diagnostic

__all__ = ["structural_diagnostics"]


def structural_diagnostics(graph: Graph, *,
                           allow_unconsumed: bool = True
                           ) -> List[Diagnostic]:
    """Check structural invariants; return diagnostics (empty = valid).

    Invariants:
    * S001 — every non-input, non-parameter tensor has a producer op;
    * S002 — consumer registrations match op input lists exactly;
    * S003 — each op passes its own ``validate`` (shape rules);
    * S004 — every op's inputs are produced by earlier ops, so the op
      list is a topological order (as :meth:`Graph.add_op` keeps it);
    * S005 — optionally, every produced tensor is consumed.
    """
    out: List[Diagnostic] = []
    name = graph.name

    for t in graph.tensors.values():
        if t.producer is None and not (t.is_param or t.is_input):
            out.append(Diagnostic(
                "S001",
                f"tensor {t.name} ({t.kind}) has no producer and is "
                "not a parameter or input",
                graph=name, obj=t.name,
            ))
        if not allow_unconsumed and t.producer is not None \
                and not t.consumers:
            out.append(Diagnostic(
                "S005",
                f"tensor {t.name} is produced but never consumed",
                graph=name, obj=t.name,
            ))

    out.extend(_edge_mismatches(graph))

    for op in graph.ops:
        try:
            op.validate()
        except Exception as exc:  # collect, don't abort at first problem
            out.append(Diagnostic("S003", f"op {op.name}: {exc}",
                                  graph=name, obj=op.name))

    ran = set()
    for op in graph.ops:
        for t in op.inputs:
            if t.producer is not None and t.producer not in ran:
                out.append(Diagnostic(
                    "S004",
                    f"op {op.name} reads {t.name} before its producer "
                    f"{t.producer.name} runs",
                    graph=name, obj=op.name,
                ))
                break
        ran.add(op)

    return out


def _edge_mismatches(graph: Graph) -> List[Diagnostic]:
    """S002: one merged finding per op (or ghost consumer) with any
    disagreement between its input list and consumer registrations."""
    #: op -> tensors registering it as consumer that it does not read
    ghost_reads: Dict[Op, List[Tensor]] = {}
    #: op -> tensors it reads without being registered on
    unregistered: Dict[Op, List[Tensor]] = {}

    for t in graph.tensors.values():
        for consumer in t.consumers:
            if t not in consumer.inputs:
                ghost_reads.setdefault(consumer, []).append(t)
    for op in graph.ops:
        seen = set()
        for t in op.inputs:
            if t in seen:
                continue
            seen.add(t)
            if op not in t.consumers:
                unregistered.setdefault(op, []).append(t)

    out = []
    for op in sorted(set(ghost_reads) | set(unregistered),
                     key=lambda o: o.name):
        parts = []
        for t in ghost_reads.get(op, ()):
            parts.append(f"is listed as consumer of {t.name} which it "
                         "does not read")
        for t in unregistered.get(op, ()):
            parts.append(f"reads {t.name} but is not registered as its "
                         "consumer")
        out.append(Diagnostic(
            "S002",
            f"op {op.name} {'; '.join(parts)}",
            graph=graph.name, obj=op.name,
        ))
    return out
