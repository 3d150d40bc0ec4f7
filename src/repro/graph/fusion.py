"""Pointwise-op fusion modeling (paper §6.2.3).

The paper's discussion points at "better cache tiling, kernel
optimization and fusion techniques" (citing cuDNN and COTS-HPC) as
levers on RNN operational intensity.  Fusing a chain of elementwise
ops into one kernel eliminates the intermediate tensors' round trips
to off-chip memory: the fused kernel reads the chain's external inputs
once and writes only its final outputs.

This module *models* that optimization on our graphs:

* :func:`fusion_groups` — partition ops into fusion groups: maximal
  chains of elementwise ops (same element count) where intermediates
  have no consumers outside the group;
* :func:`fused_total_bytes` — training-step bytes when each group's
  internal tensors stay in registers/cache.

The FLOP count is unchanged, so fusion raises operational intensity —
exactly the effect the paper wants from kernel fusion.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set

from ..symbolic import Add, Const, Expr, Mul
from .graph import Graph
from .op import Op
from .tensor import Tensor

__all__ = ["fusion_groups", "fused_total_bytes", "fused_op_bytes"]

#: elementwise op kinds eligible for fusion into one kernel
_FUSABLE_KINDS = frozenset({
    "add", "sub", "mul", "scale", "one_minus",
    "relu", "sigmoid", "tanh", "exp",
    "relu_grad", "sigmoid_grad", "tanh_grad", "exp_grad",
    "broadcast",
})


def _is_fusable(op: Op) -> bool:
    return op.kind in _FUSABLE_KINDS and len(op.outputs) == 1


def fusion_groups(graph: Graph) -> List[List[Op]]:
    """Greedy maximal fusion groups over elementwise chains.

    An op joins its producer's group when (a) both are fusable, (b) the
    connecting tensor has no consumer outside the group (its value
    never needs to be materialized), and (c) element counts match (one
    thread-per-element kernel).
    """
    group_of: Dict[Op, int] = {}
    groups: List[List[Op]] = []

    for op in graph.ops:  # topological: see Graph.add_op
        if not _is_fusable(op):
            continue
        target = None
        for t in op.inputs:
            producer = t.producer
            if producer is None or producer not in group_of:
                continue
            if not _is_fusable(producer):
                continue
            if t.num_elements() != op.outputs[0].num_elements():
                continue
            # the intermediate must be fully private to the fusion
            if len(t.consumers) != 1:
                continue
            target = group_of[producer]
            break
        if target is None:
            groups.append([op])
            group_of[op] = len(groups) - 1
        else:
            groups[target].append(op)
            group_of[op] = target

    return groups


def fused_op_bytes(group: Sequence[Op]) -> Expr:
    """Off-chip bytes of one fused kernel.

    Reads every tensor entering the group from outside, writes every
    tensor leaving the group (consumed outside or a graph output);
    intermediates stay on chip.
    """
    members: Set[Op] = set(group)
    produced: Dict[Tensor, Op] = {}
    for op in group:
        for out in op.outputs:
            produced[out] = op

    reads: List[Expr] = []
    writes: List[Expr] = []
    seen_reads: Set[Tensor] = set()
    for op in group:
        for t in op.inputs:
            if t in produced or t in seen_reads:
                continue
            seen_reads.add(t)
            reads.append(t.size_bytes())
    for t, producer in produced.items():
        escapes = (not t.consumers) or any(
            c not in members for c in t.consumers
        )
        if escapes:
            writes.append(t.size_bytes())
    return Add.of(Const(0), *reads, *writes)


def fused_total_bytes(graph: Graph) -> Expr:
    """Training-step bytes with elementwise fusion applied.

    Summed like :meth:`Graph.class_sum`: one ``count · bytes`` term per
    op class over its members outside any fusion group, and one per
    distinct fused-kernel expression (unrolled chains repeat), so the
    result is the same interned expression as the per-op sum.
    """
    groups = fusion_groups(graph)
    fused_ops: Set[Op] = {op for group in groups for op in group}
    kernels: Dict[Expr, int] = {}
    for group in groups:
        kernel = fused_op_bytes(group)
        kernels[kernel] = kernels.get(kernel, 0) + 1
    parts: List[Expr] = [Const(0)]
    parts += [Mul.of(Const(n), kernel) for kernel, n in kernels.items()]
    for rep, members in graph.op_classes():
        unfused = sum(1 for op in members if op not in fused_ops)
        if unfused:
            parts.append(Mul.of(Const(unfused), rep.bytes_accessed()))
    return Add.of(*parts)
