"""Dense and batched matrix multiplication.

MatMul dominates every model in the paper: recurrent cells, attention,
FC output layers, and (via im2col) convolutions are all matmuls.  Its
algorithmic costs anchor the paper's first-order forms:

* FLOPs ``2·m·k·n`` (multiply + accumulate),
* bytes ``dtype·(m·k + k·n + m·n)``,
* operational intensity of ``(b×√p)(√p×√p)`` is ``b√p/(2√p + 4b)``
  (§4.4) — the exact shape of the end-to-end training-step intensity.

The gradient of a matmul is two matmuls (``dA = dC·Bᵀ``, ``dB = Aᵀ·dC``),
which is why backward passes cost ~2× forward.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..graph import Graph, Op, Tensor
from ..symbolic import Add, Const, Expr, Mul

__all__ = ["MatMulOp", "BatchMatMulOp", "matmul", "batch_matmul"]


class MatMulOp(Op):
    """C[m,n] = A[m,k] @ B[k,n], with optional operand transposes."""

    kind = "matmul"
    # FLOPs are the degree-3 product 2·m·k·n; with the two-operand
    # shapes of these models no single symbol exceeds degree 2 in it
    cost_degree = 2

    def __init__(self, name: str, a: Tensor, b: Tensor, out: Tensor,
                 *, transpose_a: bool = False, transpose_b: bool = False):
        super().__init__(name, [a, b], [out])
        self.transpose_a = transpose_a
        self.transpose_b = transpose_b

    def cost_signature(self) -> tuple:
        return (self.transpose_a, self.transpose_b)

    def _dims(self) -> Tuple[Expr, Expr, Expr]:
        a, b = self.inputs
        m, k = (a.shape[1], a.shape[0]) if self.transpose_a else a.shape
        k2, n = (b.shape[1], b.shape[0]) if self.transpose_b else b.shape
        return m, k, n

    def flops(self) -> Expr:
        m, k, n = self._dims()
        return Mul.of(Const(2), m, k, n)

    def backward(self, graph: Graph, grad_outputs):
        (grad_c,) = grad_outputs
        a, b = self.inputs
        grad_a = grad_b = None
        if a.requires_grad:
            if self.transpose_a:
                # A was used as Aᵀ: dA = (dC·Bᵀ)ᵀ = B·dCᵀ (respect flags)
                grad_a = matmul(graph, b, grad_c,
                                transpose_a=self.transpose_b,
                                transpose_b=True,
                                name=f"grad/{self.name}/dA")
            else:
                grad_a = matmul(graph, grad_c, b,
                                transpose_b=not self.transpose_b,
                                name=f"grad/{self.name}/dA")
        if b.requires_grad:
            if self.transpose_b:
                grad_b = matmul(graph, grad_c, a,
                                transpose_a=True,
                                transpose_b=self.transpose_a,
                                name=f"grad/{self.name}/dB")
            else:
                grad_b = matmul(graph, a, grad_c,
                                transpose_a=not self.transpose_a,
                                name=f"grad/{self.name}/dB")
        return (grad_a, grad_b)

    def execute(self, inputs: Sequence[np.ndarray], output_shapes=()):
        a, b = inputs
        if self.transpose_a:
            a = a.T
        if self.transpose_b:
            b = b.T
        return (a @ b,)

    def validate(self) -> None:
        super().validate()
        a, b = self.inputs
        if a.rank != 2 or b.rank != 2:
            raise ValueError("matmul operands must be rank 2")
        m, k, n = self._dims()
        k_b = b.shape[1] if self.transpose_b else b.shape[0]
        if k != k_b:
            raise ValueError(f"inner dims disagree: {k} vs {k_b}")
        if tuple(self.outputs[0].shape) != (m, n):
            raise ValueError(
                f"output shape {self.outputs[0].shape} != ({m}, {n})"
            )


def matmul(graph: Graph, a: Tensor, b: Tensor, *,
           transpose_a: bool = False, transpose_b: bool = False,
           name: Optional[str] = None) -> Tensor:
    """Create a MatMul op; returns the output tensor."""
    m = a.shape[1] if transpose_a else a.shape[0]
    n = b.shape[0] if transpose_b else b.shape[1]
    prefix = name or f"{a.name}@{b.name}"
    out = graph.tensor(prefix + ":out", (m, n), dtype_bytes=a.dtype_bytes)
    graph.add_op(MatMulOp(graph.unique_name(prefix), a, b, out,
                          transpose_a=transpose_a, transpose_b=transpose_b))
    return out


class BatchMatMulOp(Op):
    """C[g,m,n] = A[g,m,k] @ B[g,k,n] — one matmul per leading index.

    Used by attention: scores = queries @ keysᵀ and context =
    weights @ values, batched over the subbatch dimension.
    """

    kind = "batch_matmul"
    cost_degree = 2

    def __init__(self, name: str, a: Tensor, b: Tensor, out: Tensor,
                 *, transpose_a: bool = False, transpose_b: bool = False):
        super().__init__(name, [a, b], [out])
        self.transpose_a = transpose_a
        self.transpose_b = transpose_b

    def cost_signature(self) -> tuple:
        return (self.transpose_a, self.transpose_b)

    def _dims(self):
        a, b = self.inputs
        g = a.shape[0]
        m, k = (a.shape[2], a.shape[1]) if self.transpose_a else a.shape[1:]
        k2, n = (b.shape[2], b.shape[1]) if self.transpose_b else b.shape[1:]
        return g, m, k, n

    def flops(self) -> Expr:
        g, m, k, n = self._dims()
        return Mul.of(Const(2), g, m, k, n)

    def backward(self, graph: Graph, grad_outputs):
        (grad_c,) = grad_outputs
        a, b = self.inputs
        grad_a = grad_b = None
        if a.requires_grad:
            if self.transpose_a:
                grad_a = batch_matmul(graph, b, grad_c,
                                      transpose_a=self.transpose_b,
                                      transpose_b=True,
                                      name=f"grad/{self.name}/dA")
            else:
                grad_a = batch_matmul(graph, grad_c, b,
                                      transpose_b=not self.transpose_b,
                                      name=f"grad/{self.name}/dA")
        if b.requires_grad:
            if self.transpose_b:
                grad_b = batch_matmul(graph, grad_c, a,
                                      transpose_a=True,
                                      transpose_b=self.transpose_a,
                                      name=f"grad/{self.name}/dB")
            else:
                grad_b = batch_matmul(graph, a, grad_c,
                                      transpose_a=not self.transpose_a,
                                      name=f"grad/{self.name}/dB")
        return (grad_a, grad_b)

    def execute(self, inputs: Sequence[np.ndarray], output_shapes=()):
        a, b = inputs
        if self.transpose_a:
            a = np.swapaxes(a, -1, -2)
        if self.transpose_b:
            b = np.swapaxes(b, -1, -2)
        return (a @ b,)

    def validate(self) -> None:
        super().validate()
        a, b = self.inputs
        if a.rank != 3 or b.rank != 3:
            raise ValueError("batch matmul operands must be rank 3")
        if a.shape[0] != b.shape[0]:
            raise ValueError("leading (batch) dims disagree")
        g, m, k, n = self._dims()
        k_b = b.shape[2] if self.transpose_b else b.shape[1]
        if k != k_b:
            raise ValueError(f"inner dims disagree: {k} vs {k_b}")
        if tuple(self.outputs[0].shape) != (g, m, n):
            raise ValueError("batch matmul output shape mismatch")


def batch_matmul(graph: Graph, a: Tensor, b: Tensor, *,
                 transpose_a: bool = False, transpose_b: bool = False,
                 name: Optional[str] = None) -> Tensor:
    """Create a BatchMatMul op; returns the output tensor."""
    g = a.shape[0]
    m = a.shape[2] if transpose_a else a.shape[1]
    n = b.shape[1] if transpose_b else b.shape[2]
    prefix = name or f"{a.name}@@{b.name}"
    out = graph.tensor(prefix + ":out", (g, m, n), dtype_bytes=a.dtype_bytes)
    graph.add_op(BatchMatMulOp(graph.unique_name(prefix), a, b, out,
                               transpose_a=transpose_a,
                               transpose_b=transpose_b))
    return out
