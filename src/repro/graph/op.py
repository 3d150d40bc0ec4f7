"""Op base class: a node of the compute graph.

Each op knows its *algorithmic* cost, in the paper's sense (§2.1):

* :meth:`Op.flops` — FLOPs of the mathematical computation only (no
  address arithmetic, no loop overhead);
* :meth:`Op.bytes_accessed` — bytes the op must read as inputs plus
  write as outputs (no intermediate scratch, no cache effects).

Subclasses additionally implement

* :meth:`Op.backward` — construct the gradient subgraph for a training
  step (reverse-mode autodiff), and
* :meth:`Op.execute` — a concrete numpy evaluation used by the runtime
  profiler to cross-validate the symbolic counts.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence, Tuple

import numpy as np

from ..symbolic import Add, Const, Expr
from .tensor import Tensor

if TYPE_CHECKING:  # pragma: no cover
    from .graph import Graph

__all__ = ["Op"]


class Op:
    """Base compute-graph node.

    Parameters
    ----------
    name:
        Unique op name within its graph (enforced by ``Graph.add_op``).
    inputs / outputs:
        Tensors read / produced.  Output tensors must have this op as
        their producer (``Graph.add_op`` wires this up).
    """

    #: short kind tag used in profiles, e.g. "matmul"; subclasses override.
    kind = "op"

    # -- declared cost metadata (consumed by repro.check.costs) ----------
    #: False for metadata-only view ops (reshape) whose algorithmic
    #: bytes are legitimately below the written-output lower bound.
    cost_writes_outputs = True
    #: upper-bound multiplier on operand traffic: algorithmic bytes may
    #: not exceed this many passes over inputs+outputs (SGD re-reads
    #: the weight, so its update op declares 2).
    cost_bytes_passes = 1
    #: declared per-symbol degree cap for the FLOP formula; ``None``
    #: defaults to the largest per-symbol degree among the op's tensor
    #: element counts (a FLOP count growing faster than any tensor the
    #: op touches is a formula regression).
    cost_degree = None
    #: True for weight-update ops (used by the params-never-updated lint).
    is_optimizer = False

    def __init__(self, name: str, inputs: Sequence[Tensor],
                 outputs: Sequence[Tensor]):
        self.name = name
        self.inputs: Tuple[Tensor, ...] = tuple(inputs)
        self.outputs: Tuple[Tensor, ...] = tuple(outputs)

    # -- algorithmic accounting ------------------------------------------
    def cost_signature(self) -> tuple:
        """The op's own attributes its cost formulas depend on.

        Together with the op type and its tensors' geometry this keys
        :meth:`repro.graph.Graph.op_classes`: ops agreeing on all three
        must return the same ``flops()`` and ``bytes_accessed()``.
        Subclasses whose costs read attributes beyond their tensors
        (transpose flags, kernel geometry, the activation function)
        extend it.
        """
        return ()

    def flops(self) -> Expr:
        """Algorithmic FLOPs; default 0 (data movement / bookkeeping ops)."""
        return Const(0)

    def bytes_accessed(self) -> Expr:
        """Algorithmic bytes: read all inputs once + write all outputs once.

        Subclasses override when the op touches less than its operands
        (e.g. an embedding lookup reads only the gathered rows).
        """
        total = [t.size_bytes() for t in self.inputs]
        total += [t.size_bytes() for t in self.outputs]
        return Add.of(*total) if total else Const(0)

    # -- autodiff ----------------------------------------------------------
    def backward(self, graph: "Graph",
                 grad_outputs: Sequence[Optional[Tensor]]
                 ) -> Tuple[Optional[Tensor], ...]:
        """Build gradient ops; return a grad tensor (or None) per input.

        ``grad_outputs`` aligns with ``self.outputs``; entries are None
        when that output does not participate in the loss.  The default
        raises: ops reachable from the loss must implement their
        gradient.
        """
        raise NotImplementedError(
            f"{type(self).__name__} ({self.name}) has no gradient rule"
        )

    # -- concrete execution -------------------------------------------------
    def execute(self, inputs: Sequence[np.ndarray],
                output_shapes: Sequence[Tuple[int, ...]] = ()
                ) -> Tuple[np.ndarray, ...]:
        """Numpy forward evaluation used by the runtime executor.

        ``output_shapes`` supplies the concrete shape of each output
        under the current symbol bindings, for ops whose kernels cannot
        infer them from the inputs alone (broadcast, split, reshape,
        scatter).
        """
        raise NotImplementedError(
            f"{type(self).__name__} ({self.name}) has no numpy kernel"
        )

    # -- misc ---------------------------------------------------------------
    def validate(self) -> None:
        """Structural self-check; subclasses extend with shape rules."""
        for t in self.outputs:
            if t.producer is not self:
                raise ValueError(
                    f"output {t.name} of {self.name} has wrong producer"
                )

    def __repr__(self) -> str:
        ins = ", ".join(t.name for t in self.inputs)
        outs = ", ".join(t.name for t in self.outputs)
        return f"{type(self).__name__}({self.name}: [{ins}] -> [{outs}])"
