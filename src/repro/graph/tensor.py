"""Tensors: symbolically-shaped data flowing between compute-graph ops.

A tensor's shape is a tuple of symbolic expressions (``Expr``), so a
single graph describes a whole family of models — e.g. a word LM whose
hidden size ``h``, vocabulary ``v`` and subbatch ``b`` stay symbolic.
Binding those symbols (``Tensor.size_bytes().evalf({...})``) recovers
the concrete counts for one configuration, exactly how Catamount binds
``bind_subs`` dictionaries.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Optional, Sequence, Tuple, Union

from ..symbolic import Const, Expr, Mul, as_expr

if TYPE_CHECKING:  # pragma: no cover
    from .op import Op

__all__ = ["Tensor", "TensorKind", "shape_elements"]

Dim = Union[Expr, int]


class TensorKind:
    """Role of a tensor in a training step (affects footprint accounting)."""

    ACTIVATION = "activation"  #: produced by an op, freed when consumed
    PARAMETER = "parameter"    #: trainable weight, persistent
    INPUT = "input"            #: training data fed each step
    GRADIENT = "gradient"      #: backward-pass activation/weight gradient

    ALL = (ACTIVATION, PARAMETER, INPUT, GRADIENT)


def shape_elements(shape: Sequence[Dim]) -> Expr:
    """Product of dims as an Expr (scalar shape () → 1)."""
    dims = [as_expr(d) for d in shape]
    if not dims:
        return Const(1)
    return Mul.of(*dims)


# Tens of thousands of tensors share a few dozen geometries.  Bounded,
# since these entries keep otherwise weakly interned expressions alive.
@lru_cache(maxsize=4096)
def _geometry(shape: Tuple[Expr, ...], dtype_bytes: int) -> Tuple[Expr, Expr]:
    elements = shape_elements(shape)
    return elements, Mul.of(Const(dtype_bytes), elements)


class Tensor:
    """A named, shaped edge of the compute graph.

    Tensors are created through :meth:`repro.graph.Graph.tensor` (which
    guarantees unique names) rather than directly.
    """

    __slots__ = (
        "name",
        "shape",
        "dtype_bytes",
        "kind",
        "producer",
        "consumers",
        "requires_grad",
        "int_bound",
    )

    def __init__(
        self,
        name: str,
        shape: Sequence[Dim],
        *,
        dtype_bytes: int = 4,
        kind: str = TensorKind.ACTIVATION,
    ):
        if kind not in TensorKind.ALL:
            raise ValueError(f"unknown tensor kind {kind!r}")
        if dtype_bytes <= 0:
            raise ValueError(f"dtype_bytes must be positive, got {dtype_bytes}")
        self.name = name
        self.shape: Tuple[Expr, ...] = tuple(as_expr(d) for d in shape)
        self.dtype_bytes = int(dtype_bytes)
        self.kind = kind
        self.producer: Optional["Op"] = None
        self.consumers: list = []
        self.requires_grad = kind == TensorKind.PARAMETER
        #: when set, this is an integer tensor with values in [0, bound)
        #: (vocabulary ids, class labels); used by the runtime to
        #: synthesize valid feeds
        self.int_bound: Optional[Expr] = None

    # -- geometry -------------------------------------------------------
    @property
    def rank(self) -> int:
        return len(self.shape)

    def num_elements(self) -> Expr:
        """Symbolic product of dims, memoized per geometry."""
        return _geometry(self.shape, self.dtype_bytes)[0]

    def size_bytes(self) -> Expr:
        """Symbolic allocated size in bytes, memoized per geometry."""
        return _geometry(self.shape, self.dtype_bytes)[1]

    # -- roles ----------------------------------------------------------
    @property
    def is_param(self) -> bool:
        return self.kind == TensorKind.PARAMETER

    @property
    def is_input(self) -> bool:
        return self.kind == TensorKind.INPUT

    @property
    def is_persistent(self) -> bool:
        """Persistent tensors (weights) are excluded from liveness churn."""
        return self.kind == TensorKind.PARAMETER

    def __repr__(self) -> str:
        dims = "x".join(str(d) for d in self.shape) or "scalar"
        return f"Tensor({self.name}: {dims}, {self.kind})"
