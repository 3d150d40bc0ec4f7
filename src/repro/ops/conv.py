"""2-D convolution (NHWC) with stride and SAME/VALID padding.

ResNets are "compute intensive due to their depth (50+ convolutions
with 64–2048 filters each)" (§2.2).  Algorithmic FLOPs are
``2·kh·kw·cin·cout·ho·wo·b`` — each weight is reused ``ho·wo`` times
per sample, which is exactly why ResNet's FLOPs/parameter ratio (γ ≈
1111) towers over the RNNs' and why its bytes/param slope (λ ≈ 67) is
tiny: weights stream once but produce massive spatial reuse.

Spatial dims and kernel geometry must be concrete integers; channel
counts and subbatch may remain symbolic.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..graph import Graph, Op, Tensor, TensorKind
from ..symbolic import Const, Expr, Mul

__all__ = ["Conv2DOp", "Conv2DInputGradOp", "Conv2DFilterGradOp", "conv2d"]


def _as_int(dim) -> int:
    value = dim.evalf() if hasattr(dim, "evalf") else float(dim)
    out = int(round(value))
    if abs(out - value) > 1e-9:
        raise ValueError(f"dimension {dim} is not an integer")
    return out


def _out_spatial(size: int, k: int, stride: int, padding: str) -> int:
    if padding == "same":
        return -(-size // stride)  # ceil div
    if padding == "valid":
        return (size - k) // stride + 1
    raise ValueError(f"unknown padding {padding!r}")


def _pad_amounts(size: int, k: int, stride: int, out: int) -> Tuple[int, int]:
    total = max((out - 1) * stride + k - size, 0)
    before = total // 2
    return before, total - before


class _ConvGeometry:
    """Shared geometry/padding math for conv forward and gradients."""

    def __init__(self, op: Op):
        x = op.inputs[0]
        self.kh, self.kw = op.kernel
        self.stride = op.stride
        self.padding = op.padding
        self.h = _as_int(x.shape[1])
        self.w = _as_int(x.shape[2])
        self.ho = _out_spatial(self.h, self.kh, self.stride, self.padding)
        self.wo = _out_spatial(self.w, self.kw, self.stride, self.padding)
        self.pad_h = _pad_amounts(self.h, self.kh, self.stride, self.ho)
        self.pad_w = _pad_amounts(self.w, self.kw, self.stride, self.wo)


def _extract_windows(x: np.ndarray, geom: _ConvGeometry) -> np.ndarray:
    """[b, ho, wo, cin, kh, kw] view of padded input patches."""
    xp = np.pad(x, ((0, 0), geom.pad_h, geom.pad_w, (0, 0)))
    windows = np.lib.stride_tricks.sliding_window_view(
        xp, (geom.kh, geom.kw), axis=(1, 2)
    )
    return windows[:, :: geom.stride, :: geom.stride]


class Conv2DOp(Op):
    """out[b,ho,wo,cout] = conv(x[b,h,w,cin], w[kh,kw,cin,cout])."""

    kind = "conv2d"
    # FLOPs 2·kh·kw·cin·cout·ho·wo·b: channel pairs give degree 2 in a
    # width-multiplier symbol, the declared cap for the cost lint
    cost_degree = 2

    def __init__(self, name: str, x: Tensor, w: Tensor, out: Tensor, *,
                 stride: int = 1, padding: str = "same"):
        super().__init__(name, [x, w], [out])
        self.stride = int(stride)
        self.padding = padding
        self.kernel = (_as_int(w.shape[0]), _as_int(w.shape[1]))

    def cost_signature(self) -> tuple:
        return (self.kernel, self.stride, self.padding)

    def flops(self) -> Expr:
        x, w = self.inputs
        out = self.outputs[0]
        # 2 · kh·kw·cin · cout · ho·wo · b
        return Mul.of(Const(2), w.num_elements(), out.shape[0],
                      out.shape[1], out.shape[2])

    def backward(self, graph: Graph, grad_outputs):
        (dy,) = grad_outputs
        x, w = self.inputs
        grad_x = grad_w = None
        if x.requires_grad:
            grad_x = graph.tensor(f"grad/{self.name}/dx", x.shape,
                                  dtype_bytes=x.dtype_bytes)
            graph.add_op(Conv2DInputGradOp(
                graph.unique_name(f"grad/{self.name}/dx_op"),
                dy, w, grad_x, forward=self,
            ))
        if w.requires_grad:
            grad_w = graph.tensor(f"grad/{self.name}/dw", w.shape,
                                  dtype_bytes=w.dtype_bytes,
                                  kind=TensorKind.GRADIENT)
            graph.add_op(Conv2DFilterGradOp(
                graph.unique_name(f"grad/{self.name}/dw_op"),
                x, dy, grad_w, forward=self,
            ))
        return (grad_x, grad_w)

    def execute(self, inputs: Sequence[np.ndarray], output_shapes=()):
        x, w = inputs
        geom = _ConvGeometry(self)
        windows = _extract_windows(x, geom)
        out = np.einsum("bxyckl,klcd->bxyd", windows, w, optimize=True)
        return (out.astype(x.dtype),)

    def validate(self) -> None:
        super().validate()
        x, w = self.inputs
        out = self.outputs[0]
        if x.rank != 4 or w.rank != 4:
            raise ValueError("conv2d needs NHWC input and khkw-cin-cout filter")
        if x.shape[3] != w.shape[2]:
            raise ValueError("input channels disagree with filter cin")
        geom = _ConvGeometry(self)
        expected = (x.shape[0], Const(geom.ho), Const(geom.wo), w.shape[3])
        if tuple(out.shape) != expected:
            raise ValueError(
                f"conv output shape {out.shape} != expected {expected}"
            )


class Conv2DInputGradOp(Op):
    """dx — same algorithmic FLOPs as the forward conv."""

    kind = "conv2d_input_grad"
    cost_degree = 2

    def __init__(self, name: str, dy: Tensor, w: Tensor, dx: Tensor, *,
                 forward: Conv2DOp):
        super().__init__(name, [dy, w], [dx])
        self.stride = forward.stride
        self.padding = forward.padding
        self.kernel = forward.kernel

    def cost_signature(self) -> tuple:
        return (self.kernel, self.stride, self.padding)

    def flops(self) -> Expr:
        dy, w = self.inputs
        return Mul.of(Const(2), w.num_elements(), dy.shape[0],
                      dy.shape[1], dy.shape[2])

    def execute(self, inputs: Sequence[np.ndarray], output_shapes=()):
        dy, w = inputs
        dx_shape = tuple(output_shapes[0])
        # rebuild geometry from the concrete forward-input shape
        geom = _ConvGeometry(_FakeConv(dx_shape, self.kernel,
                                       self.stride, self.padding))
        b = dx_shape[0]
        dxp = np.zeros(
            (b, geom.h + sum(geom.pad_h), geom.w + sum(geom.pad_w),
             dx_shape[3]),
            dtype=dy.dtype,
        )
        # dP[b,x,y,c,k,l] = dy[b,x,y,d] * w[k,l,c,d]; scatter-add patches
        dpatches = np.einsum("bxyd,klcd->bxyckl", dy, w, optimize=True)
        for k in range(geom.kh):
            for l in range(geom.kw):
                dxp[:, k: k + geom.ho * geom.stride: geom.stride,
                    l: l + geom.wo * geom.stride: geom.stride, :] += \
                    dpatches[:, :, :, :, k, l]
        dx = dxp[:, geom.pad_h[0]: geom.pad_h[0] + geom.h,
                 geom.pad_w[0]: geom.pad_w[0] + geom.w, :]
        return (dx,)


class Conv2DFilterGradOp(Op):
    """dw — same algorithmic FLOPs as the forward conv."""

    kind = "conv2d_filter_grad"
    cost_degree = 2

    def __init__(self, name: str, x: Tensor, dy: Tensor, dw: Tensor, *,
                 forward: Conv2DOp):
        super().__init__(name, [x, dy], [dw])
        self.stride = forward.stride
        self.padding = forward.padding
        self.kernel = forward.kernel

    def cost_signature(self) -> tuple:
        return (self.kernel, self.stride, self.padding)

    def flops(self) -> Expr:
        dy = self.inputs[1]
        return Mul.of(Const(2), self.outputs[0].num_elements(),
                      dy.shape[0], dy.shape[1], dy.shape[2])

    def execute(self, inputs: Sequence[np.ndarray], output_shapes=()):
        x, dy = inputs
        geom = _ConvGeometry(_FakeConv(tuple(x.shape), self.kernel,
                                       self.stride, self.padding))
        windows = _extract_windows(x, geom)
        dw = np.einsum("bxyckl,bxyd->klcd", windows, dy, optimize=True)
        return (dw,)


class _FakeConv:
    """Adapter exposing geometry attributes for gradient ops."""

    def __init__(self, x_shape: Tuple[int, ...], kernel, stride, padding):
        class _T:
            def __init__(self, shape):
                self.shape = [Const(s) for s in shape]

        self.inputs = [_T(x_shape)]
        self.kernel = kernel
        self.stride = stride
        self.padding = padding


def conv2d(graph: Graph, x: Tensor, w: Tensor, *, stride: int = 1,
           padding: str = "same", name: Optional[str] = None) -> Tensor:
    """Convolve NHWC ``x`` with filter ``w``; returns the feature map."""
    h = _as_int(x.shape[1])
    width = _as_int(x.shape[2])
    kh, kw = _as_int(w.shape[0]), _as_int(w.shape[1])
    ho = _out_spatial(h, kh, stride, padding)
    wo = _out_spatial(width, kw, stride, padding)
    prefix = name or f"conv/{x.name}"
    out = graph.tensor(prefix + ":out",
                       (x.shape[0], ho, wo, w.shape[3]),
                       dtype_bytes=x.dtype_bytes)
    graph.add_op(Conv2DOp(graph.unique_name(prefix), x, w, out,
                          stride=stride, padding=padding))
    return out
