"""Reduction ops (sum/mean) and their broadcast gradients.

Used for loss reduction and for gradients of broadcast binary ops
(a bias vector's gradient sums the upstream gradient over the batch
and time axes).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..graph import Graph, Op, Tensor
from ..symbolic import Const, Expr

__all__ = [
    "ReduceOp",
    "BroadcastOp",
    "reduce_sum",
    "reduce_mean",
    "reduce_sum_to_shape",
]


class ReduceOp(Op):
    """out = sum/mean of x over ``axes`` (axes removed from the shape)."""

    def __init__(self, name: str, x: Tensor, out: Tensor,
                 axes: Tuple[int, ...], *, mean: bool = False):
        super().__init__(name, [x], [out])
        self.axes = tuple(sorted(axes))
        self.mean = mean
        self.kind = "reduce_mean" if mean else "reduce_sum"

    def cost_signature(self) -> tuple:
        return (self.axes, self.mean)

    def flops(self) -> Expr:
        # one add per input element (plus a final divide for mean,
        # negligible and absorbed to first order)
        return self.inputs[0].num_elements()

    def backward(self, graph: Graph, grad_outputs):
        (dy,) = grad_outputs
        x = self.inputs[0]
        if not x.requires_grad:
            return (None,)
        out = graph.tensor(f"grad/{self.name}/dx", x.shape,
                           dtype_bytes=x.dtype_bytes)
        # gradient of mean divides by the (possibly symbolic) window,
        # expressed as a normalizing broadcast evaluated at run time
        graph.add_op(BroadcastOp(graph.unique_name(f"grad/{self.name}"),
                                 dy, out, self.axes, normalize=self.mean))
        return (out,)

    def execute(self, inputs: Sequence[np.ndarray], output_shapes=()):
        fn = np.mean if self.mean else np.sum
        return (fn(inputs[0], axis=self.axes),)

    def validate(self) -> None:
        super().validate()
        x, out = self.inputs[0], self.outputs[0]
        kept = tuple(d for i, d in enumerate(x.shape) if i not in self.axes)
        if tuple(out.shape) != kept:
            raise ValueError(
                f"reduce output shape {out.shape} != kept dims {kept}"
            )


class BroadcastOp(Op):
    """Tile ``x`` back across previously-reduced axes.

    With ``normalize=True`` the tiled value is divided by the window
    size (the gradient of a mean); the window is read off the concrete
    output shape at execution time, so symbolic batch dims are fine.
    """

    kind = "broadcast"

    def __init__(self, name: str, x: Tensor, out: Tensor,
                 axes: Tuple[int, ...], *, normalize: bool = False):
        super().__init__(name, [x], [out])
        self.axes = tuple(sorted(axes))
        self.normalize = normalize

    def cost_signature(self) -> tuple:
        return (self.axes, self.normalize)

    def flops(self) -> Expr:
        if not self.normalize:
            return Const(0)
        return self.outputs[0].num_elements()

    def backward(self, graph: Graph, grad_outputs):
        (dy,) = grad_outputs
        if not self.inputs[0].requires_grad:
            return (None,)
        out = graph.tensor(f"grad/{self.name}/dx", self.inputs[0].shape,
                           dtype_bytes=self.inputs[0].dtype_bytes)
        # d/dx of (broadcast then /N) is (sum then /N) == mean-reduce
        graph.add_op(ReduceOp(graph.unique_name(f"grad/{self.name}"),
                              dy, out, self.axes, mean=self.normalize))
        return (out,)

    def execute(self, inputs: Sequence[np.ndarray], output_shapes=()):
        x = inputs[0]
        target_shape = output_shapes[0]
        expanded = x
        for axis in self.axes:
            expanded = np.expand_dims(expanded, axis)
        out = np.broadcast_to(expanded, target_shape).copy()
        if self.normalize:
            window = 1
            for axis in self.axes:
                window *= target_shape[axis]
            out = out / window
        return (out,)


def reduce_sum(graph: Graph, x: Tensor, axes: Sequence[int], *,
               name: Optional[str] = None) -> Tensor:
    """Sum over the given axes."""
    return _reduce(graph, x, axes, mean=False, name=name)


def reduce_mean(graph: Graph, x: Tensor, axes: Sequence[int], *,
                name: Optional[str] = None) -> Tensor:
    """Mean over the given axes."""
    return _reduce(graph, x, axes, mean=True, name=name)


def _reduce(graph: Graph, x: Tensor, axes: Sequence[int], *,
            mean: bool, name: Optional[str]) -> Tensor:
    axes = tuple(sorted(a % x.rank for a in axes))
    kept = tuple(d for i, d in enumerate(x.shape) if i not in axes)
    prefix = name or ("mean/" if mean else "sum/") + x.name
    out = graph.tensor(prefix + ":out", kept, dtype_bytes=x.dtype_bytes)
    graph.add_op(ReduceOp(graph.unique_name(prefix), x, out, axes, mean=mean))
    return out


def reduce_sum_to_shape(graph: Graph, x: Tensor, shape, *,
                        name: Optional[str] = None) -> Tensor:
    """Reduce ``x`` down to ``shape`` by summing leading axes.

    Supports the broadcast patterns of :mod:`repro.ops.pointwise`:
    vector-over-trailing-dim and scalar.
    """
    shape = tuple(shape)
    if tuple(x.shape) == shape:
        return x
    if len(shape) == 0 or (len(shape) == 1 and shape[0] == Const(1)):
        return reduce_sum(graph, x, range(x.rank), name=name)
    if len(shape) == 1 and x.shape[-1] == shape[0]:
        return reduce_sum(graph, x, range(x.rank - 1), name=name)
    raise ValueError(f"cannot reduce {x.shape} to {shape}")
