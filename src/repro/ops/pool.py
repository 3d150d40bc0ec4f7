"""Pooling ops: 2-D max pooling (ResNet stem) and 1-D average pooling
over time (the speech encoder's inter-layer pooling, §2.5).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..graph import Graph, Op, Tensor
from ..symbolic import Const, Expr, Mul

from .conv import _as_int, _out_spatial, _pad_amounts

__all__ = ["MaxPool2DOp", "MaxPool2DGradOp", "AvgPool1DOp",
           "AvgPool1DGradOp", "max_pool2d", "avg_pool1d"]


class MaxPool2DOp(Op):
    """NHWC max pooling with square window and stride."""

    kind = "max_pool2d"

    def __init__(self, name: str, x: Tensor, out: Tensor, *,
                 window: int, stride: int, padding: str = "same"):
        super().__init__(name, [x], [out])
        self.window = int(window)
        self.stride = int(stride)
        self.padding = padding

    def cost_signature(self) -> tuple:
        return (self.window, self.stride, self.padding)

    def flops(self) -> Expr:
        # window² comparisons per output element
        return Mul.of(Const(self.window * self.window),
                      self.outputs[0].num_elements())

    def backward(self, graph: Graph, grad_outputs):
        (dy,) = grad_outputs
        x = self.inputs[0]
        if not x.requires_grad:
            return (None,)
        dx = graph.tensor(f"grad/{self.name}/dx", x.shape,
                          dtype_bytes=x.dtype_bytes)
        graph.add_op(MaxPool2DGradOp(
            graph.unique_name(f"grad/{self.name}"),
            x, self.outputs[0], dy, dx, forward=self,
        ))
        return (dx,)

    def _geometry(self, h: int, w: int):
        ho = _out_spatial(h, self.window, self.stride, self.padding)
        wo = _out_spatial(w, self.window, self.stride, self.padding)
        pad_h = _pad_amounts(h, self.window, self.stride, ho)
        pad_w = _pad_amounts(w, self.window, self.stride, wo)
        return ho, wo, pad_h, pad_w

    def execute(self, inputs: Sequence[np.ndarray], output_shapes=()):
        x = inputs[0]
        _, _, pad_h, pad_w = self._geometry(x.shape[1], x.shape[2])
        xp = np.pad(x, ((0, 0), pad_h, pad_w, (0, 0)),
                    constant_values=-np.inf)
        windows = np.lib.stride_tricks.sliding_window_view(
            xp, (self.window, self.window), axis=(1, 2)
        )[:, :: self.stride, :: self.stride]
        return (windows.max(axis=(-1, -2)).astype(x.dtype),)


class MaxPool2DGradOp(Op):
    """Routes dy to the argmax position of each pooling window."""

    kind = "max_pool2d_grad"

    def __init__(self, name: str, x: Tensor, y: Tensor, dy: Tensor,
                 dx: Tensor, *, forward: MaxPool2DOp):
        super().__init__(name, [x, y, dy], [dx])
        self.window = forward.window
        self.stride = forward.stride
        self.padding = forward.padding

    def cost_signature(self) -> tuple:
        return (self.window, self.stride, self.padding)

    def flops(self) -> Expr:
        return Mul.of(Const(self.window * self.window),
                      self.inputs[2].num_elements())

    def execute(self, inputs: Sequence[np.ndarray], output_shapes=()):
        x, y, dy = inputs
        k, s = self.window, self.stride
        ho, wo = y.shape[1], y.shape[2]
        h, w = x.shape[1], x.shape[2]
        total_h = max((ho - 1) * s + k - h, 0)
        total_w = max((wo - 1) * s + k - w, 0)
        ph, pw = total_h // 2, total_w // 2
        xp = np.pad(x, ((0, 0), (ph, total_h - ph), (pw, total_w - pw),
                        (0, 0)), constant_values=-np.inf)
        dxp = np.zeros_like(xp, dtype=dy.dtype)
        for i in range(ho):
            for j in range(wo):
                patch = xp[:, i * s: i * s + k, j * s: j * s + k, :]
                mask = patch == y[:, i: i + 1, j: j + 1, :]
                # split gradient across ties to stay conservative
                counts = mask.sum(axis=(1, 2), keepdims=True)
                dxp[:, i * s: i * s + k, j * s: j * s + k, :] += (
                    mask * dy[:, i: i + 1, j: j + 1, :] / counts
                )
        return (dxp[:, ph: ph + h, pw: pw + w, :],)


class AvgPool1DOp(Op):
    """[b, t, h] → [b, t//stride, h] average pooling over time."""

    kind = "avg_pool1d"

    def __init__(self, name: str, x: Tensor, out: Tensor, *,
                 window: int, stride: int):
        super().__init__(name, [x], [out])
        self.window = int(window)
        self.stride = int(stride)

    def cost_signature(self) -> tuple:
        return (self.window, self.stride)

    def flops(self) -> Expr:
        return Mul.of(Const(self.window),
                      self.outputs[0].num_elements())

    def backward(self, graph: Graph, grad_outputs):
        (dy,) = grad_outputs
        x = self.inputs[0]
        if not x.requires_grad:
            return (None,)
        dx = graph.tensor(f"grad/{self.name}/dx", x.shape,
                          dtype_bytes=x.dtype_bytes)
        graph.add_op(AvgPool1DGradOp(
            graph.unique_name(f"grad/{self.name}"), dy, dx,
            window=self.window, stride=self.stride,
        ))
        return (dx,)

    def execute(self, inputs: Sequence[np.ndarray], output_shapes=()):
        x = inputs[0]
        t_out = output_shapes[0][1]
        k, s = self.window, self.stride
        out = np.stack(
            [x[:, i * s: i * s + k, :].mean(axis=1) for i in range(t_out)],
            axis=1,
        )
        return (out.astype(x.dtype),)

    def validate(self) -> None:
        super().validate()
        x, out = self.inputs[0], self.outputs[0]
        t_in = _as_int(x.shape[1])
        t_out = (t_in - self.window) // self.stride + 1
        if _as_int(out.shape[1]) != t_out:
            raise ValueError("avg_pool1d output time dim mismatch")


class AvgPool1DGradOp(Op):
    """Spreads dy evenly over each pooling window."""

    kind = "avg_pool1d_grad"

    def __init__(self, name: str, dy: Tensor, dx: Tensor, *,
                 window: int, stride: int):
        super().__init__(name, [dy], [dx])
        self.window = int(window)
        self.stride = int(stride)

    def cost_signature(self) -> tuple:
        return (self.window, self.stride)

    def flops(self) -> Expr:
        return Mul.of(Const(self.window), self.inputs[0].num_elements())

    def execute(self, inputs: Sequence[np.ndarray], output_shapes=()):
        dy = inputs[0]
        t_in = output_shapes[0][1]
        k, s = self.window, self.stride
        dx = np.zeros((dy.shape[0], t_in, dy.shape[2]), dtype=dy.dtype)
        for i in range(dy.shape[1]):
            dx[:, i * s: i * s + k, :] += dy[:, i: i + 1, :] / k
        return (dx,)


def max_pool2d(graph: Graph, x: Tensor, *, window: int, stride: int,
               padding: str = "same",
               name: Optional[str] = None) -> Tensor:
    """2-D max pool (NHWC)."""
    h, w = _as_int(x.shape[1]), _as_int(x.shape[2])
    ho = _out_spatial(h, window, stride, padding)
    wo = _out_spatial(w, window, stride, padding)
    prefix = name or f"maxpool/{x.name}"
    out = graph.tensor(prefix + ":out",
                       (x.shape[0], ho, wo, x.shape[3]),
                       dtype_bytes=x.dtype_bytes)
    graph.add_op(MaxPool2DOp(graph.unique_name(prefix), x, out,
                             window=window, stride=stride, padding=padding))
    return out


def avg_pool1d(graph: Graph, x: Tensor, *, window: int = 2,
               stride: int = 2, name: Optional[str] = None) -> Tensor:
    """Average pool over the time axis of a [b, t, h] tensor."""
    t_in = _as_int(x.shape[1])
    t_out = (t_in - window) // stride + 1
    prefix = name or f"pool1d/{x.name}"
    out = graph.tensor(prefix + ":out",
                       (x.shape[0], t_out, x.shape[2]),
                       dtype_bytes=x.dtype_bytes)
    graph.add_op(AvgPool1DOp(graph.unique_name(prefix), x, out,
                             window=window, stride=stride))
    return out
