"""Dataflow framework over the graph IR: def-use chains, reachability.

All lint passes share one :class:`DataflowIndex`, built purely from
``op.inputs`` / ``op.outputs`` (the ground truth) rather than the
redundant ``tensor.consumers`` registrations — so the dataflow passes
keep working on graphs whose consumer lists are corrupted (those are
reported separately by the structural pass).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Iterable, List, Optional, Set

from ..graph.graph import Graph
from ..graph.op import Op
from ..graph.tensor import Tensor

__all__ = ["DataflowIndex"]


class DataflowIndex:
    """Def-use chains and reachability queries for one graph.

    ``loss`` (when known) anchors the loss-reachability queries; ops
    with no outputs (weight updates) are always treated as sinks.
    """

    def __init__(self, graph: Graph, *, loss: Optional[Tensor] = None):
        self.graph = graph
        self.loss = loss
        #: tensor -> ops that read it (from op.inputs, deduplicated)
        self.readers: Dict[Tensor, List[Op]] = {}
        #: tensor -> op that writes it (from op.outputs)
        self.writer: Dict[Tensor, Op] = {}
        for op in graph.ops:
            seen: Set[Tensor] = set()
            for t in op.inputs:
                if t not in seen:
                    seen.add(t)
                    self.readers.setdefault(t, []).append(op)
            for t in op.outputs:
                self.writer[t] = op

    # -- reachability ----------------------------------------------------
    def ancestors(self, roots: Iterable[Op]) -> Set[Op]:
        """Ops whose results the roots (transitively) depend on."""
        seen: Set[Op] = set()
        queue = deque(roots)
        while queue:
            op = queue.popleft()
            if op in seen:
                continue
            seen.add(op)
            for t in op.inputs:
                producer = self.writer.get(t)
                if producer is not None and producer not in seen:
                    queue.append(producer)
        return seen

    def sinks(self) -> List[Op]:
        """Ops whose effects escape the graph: weight updates + loss."""
        out = [op for op in self.graph.ops if not op.outputs]
        if self.loss is not None:
            producer = self.writer.get(self.loss)
            if producer is not None:
                out.append(producer)
        return out

    def live_ops(self) -> Set[Op]:
        """Ops needed to produce any sink — the complement is dead code.

        Without a known loss and without sinks (a pure forward graph
        handed in as a bare ``Graph``), every terminal op (one with an
        unread output) is treated as a legitimate graph output instead,
        so the query degrades gracefully rather than marking the whole
        graph dead.
        """
        roots = self.sinks()
        if not roots:
            roots = [
                op for op in self.graph.ops
                if any(not self.readers.get(t) for t in op.outputs)
            ]
        return self.ancestors(roots)

    def loss_ancestor_ops(self) -> Set[Op]:
        """Ops the loss value depends on (empty when loss is unknown)."""
        if self.loss is None:
            return set()
        producer = self.writer.get(self.loss)
        if producer is None:
            return set()
        return self.ancestors([producer])

    def loss_reachable_params(self) -> List[Tensor]:
        """Trainable parameters the loss actually depends on."""
        forward = self.loss_ancestor_ops()
        out = []
        for t in self.graph.tensors.values():
            if not (t.is_param and t.requires_grad):
                continue
            if any(op in forward for op in self.readers.get(t, ())):
                out.append(t)
        return out

    # -- def-use summaries ----------------------------------------------
    def unread_tensors(self) -> List[Tensor]:
        """Produced tensors no op reads (candidates for dead-tensor)."""
        return [
            t for t in self.graph.tensors.values()
            if t in self.writer and not self.readers.get(t)
        ]

    def optimizer_ops(self) -> List[Op]:
        return [op for op in self.graph.ops if op.is_optimizer]

    def params_updated(self) -> FrozenSet[Tensor]:
        """Parameters read by at least one optimizer op."""
        out = set()
        for op in self.optimizer_ops():
            for t in op.inputs:
                if t.is_param:
                    out.add(t)
        return frozenset(out)
