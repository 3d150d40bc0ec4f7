"""Optimizer update ops.

The paper's per-step memory accounting includes reading *and updating*
model weights (§4.3): SGD reads the weight and its gradient and writes
the weight back — 3 weight-sized accesses and 2 FLOPs per parameter.
The op is modeled as in-place (no output tensor) so the analysis does
not double-count weight memory in the footprint.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..graph import Graph, Op, Tensor
from ..symbolic import Add, Const, Expr, Mul

__all__ = ["SGDUpdateOp", "sgd_update"]


class SGDUpdateOp(Op):
    """w ← w − lr·g, in place (terminal op, no outputs)."""

    kind = "sgd_update"
    is_optimizer = True
    # reads the weight twice (once per pass of the update), so the
    # operand-traffic lint bound is two passes, not one
    cost_bytes_passes = 2

    def __init__(self, name: str, weight: Tensor, grad: Tensor,
                 lr: float = 0.01):
        if tuple(weight.shape) != tuple(grad.shape):
            raise ValueError(
                f"weight/grad shape mismatch: {weight.shape} vs {grad.shape}"
            )
        super().__init__(name, [weight, grad], [])
        self.lr = float(lr)

    def cost_signature(self) -> tuple:
        return (self.lr,)

    def flops(self) -> Expr:
        # scale + subtract per element
        return Mul.of(Const(2), self.inputs[0].num_elements())

    def bytes_accessed(self) -> Expr:
        # read w, read g, write w
        w, g = self.inputs
        return Add.of(w.size_bytes(), w.size_bytes(), g.size_bytes())

    def execute(self, inputs: Sequence[np.ndarray], output_shapes=()):
        # side-effect-free modeling: the executor treats weights as
        # constants within a step; return nothing
        return ()


def sgd_update(graph: Graph, weight: Tensor, grad: Tensor, *,
               lr: float = 0.01, name: Optional[str] = None) -> SGDUpdateOp:
    """Attach an SGD update for ``weight`` using ``grad``."""
    prefix = name or f"sgd/{weight.name}"
    op = SGDUpdateOp(graph.unique_name(prefix), weight, grad, lr=lr)
    graph.add_op(op)
    return op
