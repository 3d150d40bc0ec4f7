"""Batch normalization over the channel (last) axis.

ResNet blocks interleave convolutions with batch norm (§2.2, Fig. 1).
Cost model: ~8 FLOPs/element forward (two reduction passes + normalize
+ scale-shift), ~14 FLOPs/element backward — small next to the convs,
as the paper's profiles show.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..graph import Graph, Op, Tensor, TensorKind
from ..symbolic import Const, Expr, Mul

__all__ = ["BatchNormOp", "BatchNormGradOp", "batch_norm"]

_EPS = 1e-5


class BatchNormOp(Op):
    """out = gamma · (x − μ)/σ + beta, statistics over all but last axis."""

    kind = "batch_norm"

    def __init__(self, name: str, x: Tensor, gamma: Tensor, beta: Tensor,
                 out: Tensor):
        super().__init__(name, [x, gamma, beta], [out])

    def flops(self) -> Expr:
        return Mul.of(Const(8), self.outputs[0].num_elements())

    def backward(self, graph: Graph, grad_outputs):
        (dy,) = grad_outputs
        x, gamma, beta = self.inputs
        dx = dgamma = dbeta = None
        outs = []
        if x.requires_grad:
            dx = graph.tensor(f"grad/{self.name}/dx", x.shape,
                              dtype_bytes=x.dtype_bytes)
            outs.append(dx)
        if gamma.requires_grad:
            dgamma = graph.tensor(f"grad/{self.name}/dgamma", gamma.shape,
                                  dtype_bytes=gamma.dtype_bytes,
                                  kind=TensorKind.GRADIENT)
            outs.append(dgamma)
        if beta.requires_grad:
            dbeta = graph.tensor(f"grad/{self.name}/dbeta", beta.shape,
                                 dtype_bytes=beta.dtype_bytes,
                                 kind=TensorKind.GRADIENT)
            outs.append(dbeta)
        graph.add_op(BatchNormGradOp(
            graph.unique_name(f"grad/{self.name}"),
            x, gamma, dy, dx, dgamma, dbeta,
        ))
        return (dx, dgamma, dbeta)

    def execute(self, inputs: Sequence[np.ndarray], output_shapes=()):
        x, gamma, beta = inputs
        axes = tuple(range(x.ndim - 1))
        mean = x.mean(axis=axes)
        var = x.var(axis=axes)
        xhat = (x - mean) / np.sqrt(var + _EPS)
        return ((gamma * xhat + beta).astype(x.dtype),)

    def validate(self) -> None:
        super().validate()
        x, gamma, beta = self.inputs
        if tuple(gamma.shape) != (x.shape[-1],):
            raise ValueError("gamma must match channel dim")
        if tuple(beta.shape) != (x.shape[-1],):
            raise ValueError("beta must match channel dim")
        if tuple(self.outputs[0].shape) != tuple(x.shape):
            raise ValueError("batch norm preserves shape")


class BatchNormGradOp(Op):
    """Joint gradient (dx, dgamma, dbeta); recomputes batch statistics."""

    kind = "batch_norm_grad"

    def __init__(self, name: str, x: Tensor, gamma: Tensor, dy: Tensor,
                 dx, dgamma, dbeta):
        outs = [t for t in (dx, dgamma, dbeta) if t is not None]
        super().__init__(name, [x, gamma, dy], outs)
        self._wants = (dx is not None, dgamma is not None, dbeta is not None)

    def cost_signature(self) -> tuple:
        return self._wants

    def flops(self) -> Expr:
        return Mul.of(Const(14), self.inputs[0].num_elements())

    def execute(self, inputs: Sequence[np.ndarray], output_shapes=()):
        x, gamma, dy = inputs
        axes = tuple(range(x.ndim - 1))
        m = float(np.prod([x.shape[i] for i in axes]))
        mean = x.mean(axis=axes)
        var = x.var(axis=axes)
        inv_std = 1.0 / np.sqrt(var + _EPS)
        xhat = (x - mean) * inv_std

        outs = []
        if self._wants[0]:
            dxhat = dy * gamma
            dx = (inv_std / m) * (
                m * dxhat
                - dxhat.sum(axis=axes)
                - xhat * (dxhat * xhat).sum(axis=axes)
            )
            outs.append(dx.astype(x.dtype))
        if self._wants[1]:
            outs.append((dy * xhat).sum(axis=axes).astype(x.dtype))
        if self._wants[2]:
            outs.append(dy.sum(axis=axes).astype(x.dtype))
        return tuple(outs)


def batch_norm(graph: Graph, x: Tensor, *,
               name: Optional[str] = None) -> Tensor:
    """Batch norm with fresh trainable scale/shift parameters."""
    prefix = name or f"bn/{x.name}"
    gamma = graph.parameter(prefix + ":gamma", (x.shape[-1],),
                            dtype_bytes=x.dtype_bytes)
    beta = graph.parameter(prefix + ":beta", (x.shape[-1],),
                           dtype_bytes=x.dtype_bytes)
    out = graph.tensor(prefix + ":out", x.shape, dtype_bytes=x.dtype_bytes)
    graph.add_op(BatchNormOp(graph.unique_name(prefix), x, gamma, beta, out))
    return out
