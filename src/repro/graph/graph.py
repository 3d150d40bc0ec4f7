"""Graph container: owns tensors and ops, guarantees well-formedness.

The graph is a DAG of :class:`~repro.graph.op.Op` nodes connected by
:class:`~repro.graph.tensor.Tensor` edges.  It provides aggregate
algorithmic counts (FLOPs, bytes, parameters) as symbolic expressions —
the quantities the paper profiles with TFprof, here derived exactly.

Unrolled training graphs are thousands of copies of a few dozen
distinct ops.  :meth:`Graph.op_classes` groups ops whose costs are
provably the same (same op type, same declared
:meth:`~repro.graph.op.Op.cost_signature`, same tensor geometry), so
every per-op cost loop builds and evaluates one expression per class
instead of one per op.

An op added inside an unrolled loop carries a ``(loop, step)`` tag
(:meth:`Graph.unroll`), so :mod:`repro.analysis.fold` can cost a long
unroll from short ones.  Tags are not part of op classes, cost
signatures or serialization.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple, TypeVar)

from ..symbolic import Add, Const, Expr, Mul
from .op import Op
from .tensor import Dim, Tensor, TensorKind

__all__ = ["Graph"]

T = TypeVar("T")

#: ``(loop, step)``: the unrolled loop an op was emitted in, and when
Tag = Tuple[str, int]


def _tensor_signature(t: Tensor) -> tuple:
    return (t.shape, t.dtype_bytes, t.kind, t.int_bound)


class Graph:
    """A compute graph under construction or analysis.

    ``default_dtype_bytes`` sets the element width of tensors created
    without an explicit dtype (4 = fp32; 2 models half precision — the
    §6.2.3 memory-reduction lever).
    """

    def __init__(self, name: str = "graph", *,
                 default_dtype_bytes: int = 4):
        self.name = name
        self.default_dtype_bytes = int(default_dtype_bytes)
        self.ops: List[Op] = []
        #: each op's loop tag (None outside unrolled loops), aligned
        #: with :attr:`ops`; a tuple once finalized
        self.tags: Sequence[Optional[Tag]] = []
        self._tag: Optional[Tag] = None
        self.tensors: Dict[str, Tensor] = {}
        self._op_names: set = set()
        self._name_counters: Dict[str, int] = {}
        self._finalized = False
        #: derived state by key, filled by :meth:`memo` once finalized
        self._derived: Dict[str, object] = {}

    # -- construction -----------------------------------------------------
    def unique_name(self, prefix: str) -> str:
        """Allocate a name unique across both ops and tensors."""
        count = self._name_counters.get(prefix, 0)
        while True:
            candidate = prefix if count == 0 else f"{prefix}_{count}"
            count += 1
            if candidate not in self.tensors and candidate not in self._op_names:
                self._name_counters[prefix] = count
                return candidate

    def tensor(
        self,
        prefix: str,
        shape: Sequence[Dim],
        *,
        dtype_bytes: Optional[int] = None,
        kind: str = TensorKind.ACTIVATION,
    ) -> Tensor:
        """Create and register a tensor with a unique name."""
        if self._finalized:
            raise ValueError(f"graph {self.name} is finalized; "
                             f"cannot add tensor {prefix!r}")
        if dtype_bytes is None:
            dtype_bytes = self.default_dtype_bytes
        t = Tensor(self.unique_name(prefix), shape,
                   dtype_bytes=dtype_bytes, kind=kind)
        self.tensors[t.name] = t
        return t

    def parameter(self, prefix: str, shape: Sequence[Dim],
                  *, dtype_bytes: Optional[int] = None) -> Tensor:
        """Create a trainable weight tensor."""
        return self.tensor(prefix, shape, dtype_bytes=dtype_bytes,
                           kind=TensorKind.PARAMETER)

    def input(self, prefix: str, shape: Sequence[Dim],
              *, dtype_bytes: Optional[int] = None) -> Tensor:
        """Create a training-data input tensor."""
        return self.tensor(prefix, shape, dtype_bytes=dtype_bytes,
                           kind=TensorKind.INPUT)

    def add_op(self, op: Op) -> Op:
        """Register an op: wire producer/consumer links and check names.

        Ops are appended in dependency order, so :attr:`ops` is always
        a topological order of the graph: an op that produces a tensor
        some op already reads, or that reads its own output, is
        refused.  Every check runs before any link is wired, so a
        refused op leaves the graph unchanged.
        """
        if self._finalized:
            raise ValueError(
                f"graph {self.name} is finalized; cannot add op {op.name!r}"
            )
        if op.name in self._op_names:
            raise ValueError(f"duplicate op name {op.name!r}")
        for t in op.inputs:
            if self.tensors.get(t.name) is not t:
                raise ValueError(
                    f"op {op.name} consumes foreign tensor {t.name!r}"
                )
        for i, t in enumerate(op.outputs):
            if self.tensors.get(t.name) is not t:
                raise ValueError(
                    f"op {op.name} produces foreign tensor {t.name!r}"
                )
            producer = op if t in op.outputs[:i] else t.producer
            if producer is not None:
                raise ValueError(
                    f"tensor {t.name} already produced by {producer.name}"
                )
            reader = op if t in op.inputs else next(iter(t.consumers), None)
            if reader is not None:
                raise ValueError(
                    f"op {op.name} produces tensor {t.name}, which "
                    f"{reader.name} already reads"
                )
        for t in op.outputs:
            t.producer = op
        for t in op.inputs:
            t.consumers.append(op)
        # requires_grad propagates forward through any op
        needs = any(t.requires_grad for t in op.inputs)
        if needs:
            for t in op.outputs:
                t.requires_grad = True
        self.ops.append(op)
        self.tags.append(self._tag)
        self._op_names.add(op.name)
        return op

    @contextmanager
    def tagged(self, tag: Optional[Tag]) -> Iterator[None]:
        """Ops added inside the block carry ``tag`` (see :attr:`tags`)."""
        outer, self._tag = self._tag, tag
        try:
            yield
        finally:
            self._tag = outer

    def unroll(self, loop: str,
               items: Iterable[T]) -> Iterator[Tuple[int, T]]:
        """``enumerate(items)``, each step's ops tagged ``(loop, step)``.

        Every unrolled loop of a model builder iterates through this,
        with a ``loop`` name unique in the graph, so the op list splits
        into fixed segments and runs of loop steps.
        """
        for step, item in enumerate(items):
            with self.tagged((loop, step)):
                yield step, item

    def finalize(self) -> "Graph":
        """Freeze the graph: later :meth:`tensor` and :meth:`add_op` raise.

        Freezing is the one condition under which state derived from
        the graph is reused (:meth:`memo`).  Nothing else can change
        it: tensor shapes are immutable and the rewrite passes in
        ``fusion``/``inplace`` never mutate the graph.
        """
        self._finalized = True
        self.tags = tuple(self.tags)
        return self

    def memo(self, key: str, build: Callable[[], T], *,
             hit=None, miss=None) -> T:
        """``build()``, kept under ``key`` once the graph is finalized.

        Before that every call builds afresh, so derived state is never
        stale.  ``hit``/``miss`` are optional counters to bump.
        """
        if self._finalized and key in self._derived:
            if hit is not None:
                hit.inc()
            return self._derived[key]
        if miss is not None:
            miss.inc()
        value = build()
        if self._finalized:
            # under concurrent callers the first stored value wins
            value = self._derived.setdefault(key, value)
        return value

    # -- op classes --------------------------------------------------------
    def _classify(self) -> Tuple[List[Tuple[Op, List[Op]]], List[int]]:
        index: Dict[tuple, int] = {}
        classes: List[Tuple[Op, List[Op]]] = []
        class_of: List[int] = []
        for op in self.ops:
            key = (type(op), op.cost_signature(),
                   tuple(map(_tensor_signature, op.inputs)),
                   tuple(map(_tensor_signature, op.outputs)))
            i = index.get(key)
            if i is None:
                i = index[key] = len(classes)
                classes.append((op, []))
            classes[i][1].append(op)
            class_of.append(i)
        return classes, class_of

    def op_classes(self) -> List[Tuple[Op, List[Op]]]:
        """Ops grouped by cost-determining signature.

        Two ops share a class when they have the same type, the same
        :meth:`~repro.graph.op.Op.cost_signature`, and the same shape,
        dtype width, kind and integer bound on every input and output
        tensor — so their ``flops()`` and ``bytes_accessed()`` are the
        same interned expression.  Returns ``(representative,
        members)`` pairs in order of first appearance, members in op
        order.  Memoized on a finalized graph, recomputed per call
        otherwise.
        """
        return self.memo("op_classes", self._classify)[0]

    def per_op(self, cost: Callable[[Op], T]) -> List[T]:
        """``cost(representative)`` once per op class, laid out per op.

        The result aligns with :attr:`ops`, so a caller can keep a
        per-op accumulation loop (and its float summation order) while
        evaluating each distinct op only once.
        """
        classes, class_of = self.memo("op_classes", self._classify)
        values = [cost(rep) for rep, _ in classes]
        return [values[i] for i in class_of]

    # -- queries -----------------------------------------------------------
    def parameters(self) -> List[Tensor]:
        """All trainable weight tensors, in creation order."""
        return [t for t in self.tensors.values() if t.is_param]

    def inputs(self) -> List[Tensor]:
        """All training-data input tensors."""
        return [t for t in self.tensors.values() if t.is_input]

    def find(self, name: str) -> Tensor:
        """Look up a tensor by exact name."""
        try:
            return self.tensors[name]
        except KeyError:
            raise KeyError(f"no tensor named {name!r} in graph {self.name}")

    def parameter_count(self) -> Expr:
        """Total trainable parameters (symbolic)."""
        counts = [t.num_elements() for t in self.parameters()]
        return Add.of(*counts) if counts else Const(0)

    def parameter_bytes(self) -> Expr:
        """Total weight memory (symbolic bytes)."""
        sizes = [t.size_bytes() for t in self.parameters()]
        return Add.of(*sizes) if sizes else Const(0)

    def class_sum(self, cost: Callable[[Op], Expr]) -> Expr:
        """``Σ cost(op)`` over all ops, one ``count · cost`` per class.

        Exact rational coefficients make this the same interned
        expression as the per-op sum.
        """
        return Add.of(Const(0), *(
            Mul.of(Const(len(members)), cost(rep))
            for rep, members in self.op_classes()
        ))

    def total_flops(self) -> Expr:
        """Sum of algorithmic FLOPs across all ops (memoized)."""
        return self.memo("flops",
                         lambda: self.class_sum(lambda op: op.flops()))

    def total_bytes_accessed(self) -> Expr:
        """Sum of algorithmic bytes accessed across all ops (memoized)."""
        return self.memo("bytes", lambda: self.class_sum(
            lambda op: op.bytes_accessed()))

    def algorithmic_io_bytes(self) -> Expr:
        """Bytes of training data consumed per step (paper's algorithmic IO)."""
        sizes = [t.size_bytes() for t in self.inputs()]
        return Add.of(*sizes) if sizes else Const(0)

    def free_symbols(self) -> frozenset:
        out = frozenset()
        for t in self.tensors.values():
            for d in t.shape:
                out |= d.free_symbols()
        return out

    def __len__(self) -> int:
        return len(self.ops)

    def __repr__(self) -> str:
        return (f"Graph({self.name}: {len(self.ops)} ops, "
                f"{len(self.tensors)} tensors)")
