"""Pointwise (elementwise) ops: arithmetic and activations.

FLOP costs follow TFprof-style accounting: one FLOP per element for
arithmetic, a small constant per element for transcendental activations
(the exact constant is irrelevant to first order — recurrent models are
dominated by their matmuls, as §4.2 shows).

Binary ops support the broadcasts the models need: identical shapes, a
trailing-dim vector (bias add), or a scalar.  Gradients for broadcast
operands reduce-sum over the broadcast axes.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from ..graph import Graph, Op, Tensor
from ..symbolic import Const, Expr, Mul

__all__ = [
    "UnaryOp",
    "UnaryGradOp",
    "BinaryOp",
    "add",
    "subtract",
    "multiply",
    "sigmoid",
    "tanh",
    "relu",
    "scale",
    "one_minus",
]

# name -> (flops/element, numpy fn, grad flops/element, grad fn(y, x, dy))
_UNARY_TABLE = {
    "sigmoid": (4, lambda x: 1.0 / (1.0 + np.exp(-x)), 2,
                lambda y, x, dy: dy * y * (1.0 - y)),
    "tanh": (6, np.tanh, 2, lambda y, x, dy: dy * (1.0 - y * y)),
    "relu": (1, lambda x: np.maximum(x, 0.0), 1,
             lambda y, x, dy: dy * (x > 0)),
    "exp": (1, np.exp, 1, lambda y, x, dy: dy * y),
}


class UnaryOp(Op):
    """y = f(x) elementwise, f from the activation table."""

    def __init__(self, name: str, fn: str, x: Tensor, out: Tensor):
        if fn not in _UNARY_TABLE:
            raise ValueError(f"unknown unary fn {fn!r}")
        super().__init__(name, [x], [out])
        self.fn = fn
        self.kind = fn

    def cost_signature(self) -> tuple:
        return (self.fn,)

    def flops(self) -> Expr:
        cost = _UNARY_TABLE[self.fn][0]
        return Mul.of(Const(cost), self.outputs[0].num_elements())

    def backward(self, graph: Graph, grad_outputs):
        (dy,) = grad_outputs
        x = self.inputs[0]
        if not x.requires_grad:
            return (None,)
        out = graph.tensor(f"grad/{self.name}/dx", x.shape,
                           dtype_bytes=x.dtype_bytes)
        graph.add_op(UnaryGradOp(graph.unique_name(f"grad/{self.name}"),
                                 self.fn, self.outputs[0], x, dy, out))
        return (out,)

    def execute(self, inputs: Sequence[np.ndarray], output_shapes=()):
        return (_UNARY_TABLE[self.fn][1](inputs[0]),)

    def validate(self) -> None:
        super().validate()
        if tuple(self.inputs[0].shape) != tuple(self.outputs[0].shape):
            raise ValueError("unary op must preserve shape")


class UnaryGradOp(Op):
    """dx = f'(x)·dy, expressed in terms of (y, x, dy)."""

    def __init__(self, name: str, fn: str, y: Tensor, x: Tensor,
                 dy: Tensor, out: Tensor):
        super().__init__(name, [y, x, dy], [out])
        self.fn = fn
        self.kind = fn + "_grad"

    def cost_signature(self) -> tuple:
        return (self.fn,)

    def flops(self) -> Expr:
        cost = _UNARY_TABLE[self.fn][2]
        return Mul.of(Const(cost), self.outputs[0].num_elements())

    def bytes_accessed(self) -> Expr:
        # reads the tensors its formula actually uses + writes dx;
        # relu touches x, sigmoid/tanh/exp touch y — count dominant 3
        sizes = [self.inputs[0].size_bytes(), self.inputs[2].size_bytes(),
                 self.outputs[0].size_bytes()]
        from ..symbolic import Add

        return Add.of(*sizes)

    def execute(self, inputs: Sequence[np.ndarray], output_shapes=()):
        y, x, dy = inputs
        return (_UNARY_TABLE[self.fn][3](y, x, dy).astype(x.dtype),)


def _broadcast_kind(a: Tensor, b: Tensor) -> str:
    if tuple(a.shape) == tuple(b.shape):
        return "same"
    if b.rank == 0 or (b.rank == 1 and b.shape[0] == Const(1)):
        return "scalar"
    if b.rank == 1 and a.rank >= 1 and a.shape[-1] == b.shape[0]:
        return "vector"  # bias over trailing dim
    raise ValueError(
        f"unsupported broadcast: {a.shape} vs {b.shape}"
    )


class BinaryOp(Op):
    """out = a (op) b with limited broadcasting (same/vector/scalar)."""

    _FNS: dict = {
        "add": (np.add, 1),
        "sub": (np.subtract, 1),
        "mul": (np.multiply, 1),
    }

    def __init__(self, name: str, fn: str, a: Tensor, b: Tensor, out: Tensor):
        if fn not in self._FNS:
            raise ValueError(f"unknown binary fn {fn!r}")
        super().__init__(name, [a, b], [out])
        self.fn = fn
        self.kind = fn
        self.broadcast = _broadcast_kind(a, b)

    def cost_signature(self) -> tuple:
        return (self.fn, self.broadcast)

    def flops(self) -> Expr:
        return self.outputs[0].num_elements()

    def backward(self, graph: Graph, grad_outputs):
        from .reduce import reduce_sum_to_shape

        (dy,) = grad_outputs
        a, b = self.inputs
        grad_a = grad_b = None
        if a.requires_grad:
            if self.fn in ("add", "sub"):
                grad_a = dy
            else:  # mul
                grad_a = multiply(graph, dy, b,
                                  name=f"grad/{self.name}/da")
        if b.requires_grad:
            if self.fn == "add":
                grad_b = dy
            elif self.fn == "sub":
                grad_b = scale(graph, dy, -1.0,
                               name=f"grad/{self.name}/neg")
            else:  # mul
                grad_b = multiply(graph, dy, a,
                                  name=f"grad/{self.name}/db")
            if self.broadcast != "same":
                grad_b = reduce_sum_to_shape(
                    graph, grad_b, b.shape, name=f"grad/{self.name}/rsum"
                )
        return (grad_a, grad_b)

    def execute(self, inputs: Sequence[np.ndarray], output_shapes=()):
        fn = self._FNS[self.fn][0]
        return (fn(inputs[0], inputs[1]),)

    def validate(self) -> None:
        super().validate()
        if tuple(self.inputs[0].shape) != tuple(self.outputs[0].shape):
            raise ValueError("binary op output must match lhs shape")
        _broadcast_kind(self.inputs[0], self.inputs[1])


class ScaleOp(Op):
    """y = c·x for a compile-time constant c (1 FLOP/element)."""

    kind = "scale"

    def __init__(self, name: str, x: Tensor, factor: float, out: Tensor):
        super().__init__(name, [x], [out])
        self.factor = float(factor)

    def cost_signature(self) -> tuple:
        return (self.factor,)

    def flops(self) -> Expr:
        return self.outputs[0].num_elements()

    def backward(self, graph: Graph, grad_outputs):
        (dy,) = grad_outputs
        if not self.inputs[0].requires_grad:
            return (None,)
        return (scale(graph, dy, self.factor,
                      name=f"grad/{self.name}/dx"),)

    def execute(self, inputs: Sequence[np.ndarray], output_shapes=()):
        return (self.factor * inputs[0],)


class OneMinusOp(Op):
    """y = 1 - x (the RHN/LSTM carry-gate complement)."""

    kind = "one_minus"

    def __init__(self, name: str, x: Tensor, out: Tensor):
        super().__init__(name, [x], [out])

    def flops(self) -> Expr:
        return self.outputs[0].num_elements()

    def backward(self, graph: Graph, grad_outputs):
        (dy,) = grad_outputs
        if not self.inputs[0].requires_grad:
            return (None,)
        return (scale(graph, dy, -1.0, name=f"grad/{self.name}/dx"),)

    def execute(self, inputs: Sequence[np.ndarray], output_shapes=()):
        return (1.0 - inputs[0],)


# -- builder helpers --------------------------------------------------------

def _binary(graph: Graph, fn: str, a: Tensor, b: Tensor,
            name: Optional[str]) -> Tensor:
    prefix = name or f"{fn}/{a.name}"
    out = graph.tensor(prefix + ":out", a.shape, dtype_bytes=a.dtype_bytes)
    graph.add_op(BinaryOp(graph.unique_name(prefix), fn, a, b, out))
    return out


def add(graph: Graph, a: Tensor, b: Tensor, *,
        name: Optional[str] = None) -> Tensor:
    """Elementwise a + b (b may broadcast as bias/scalar)."""
    return _binary(graph, "add", a, b, name)


def subtract(graph: Graph, a: Tensor, b: Tensor, *,
             name: Optional[str] = None) -> Tensor:
    """Elementwise a − b."""
    return _binary(graph, "sub", a, b, name)


def multiply(graph: Graph, a: Tensor, b: Tensor, *,
             name: Optional[str] = None) -> Tensor:
    """Elementwise (Hadamard) a ⊙ b."""
    return _binary(graph, "mul", a, b, name)


def _unary(graph: Graph, fn: str, x: Tensor,
           name: Optional[str]) -> Tensor:
    prefix = name or f"{fn}/{x.name}"
    out = graph.tensor(prefix + ":out", x.shape, dtype_bytes=x.dtype_bytes)
    graph.add_op(UnaryOp(graph.unique_name(prefix), fn, x, out))
    return out


def sigmoid(graph: Graph, x: Tensor, *, name: Optional[str] = None) -> Tensor:
    """Elementwise logistic sigmoid."""
    return _unary(graph, "sigmoid", x, name)


def tanh(graph: Graph, x: Tensor, *, name: Optional[str] = None) -> Tensor:
    """Elementwise hyperbolic tangent."""
    return _unary(graph, "tanh", x, name)


def relu(graph: Graph, x: Tensor, *, name: Optional[str] = None) -> Tensor:
    """Elementwise rectifier."""
    return _unary(graph, "relu", x, name)


def scale(graph: Graph, x: Tensor, factor: float, *,
          name: Optional[str] = None) -> Tensor:
    """y = factor · x for a Python-number factor."""
    prefix = name or f"scale/{x.name}"
    out = graph.tensor(prefix + ":out", x.shape, dtype_bytes=x.dtype_bytes)
    graph.add_op(ScaleOp(graph.unique_name(prefix), x, factor, out))
    return out


def one_minus(graph: Graph, x: Tensor, *,
              name: Optional[str] = None) -> Tensor:
    """y = 1 − x (gate complement)."""
    prefix = name or f"one_minus/{x.name}"
    out = graph.tensor(prefix + ":out", x.shape, dtype_bytes=x.dtype_bytes)
    graph.add_op(OneMinusOp(graph.unique_name(prefix), x, out))
    return out
