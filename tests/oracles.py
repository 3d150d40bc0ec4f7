"""Seed reference implementations kept only as test and bench oracles.

Each is the original, straightforward form of a function the program
now computes faster; differential tests and
``benchmarks/bench_compile_eval.py`` hold the fast path to it.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

from repro.graph import Graph, Op, Tensor

__all__ = [
    "_evaluate_sizes_treewalk",
    "_memory_greedy_order_reference",
    "_consumer_counts",
]


def _evaluate_sizes_treewalk(graph: Graph,
                             bindings: Optional[Mapping] = None
                             ) -> Dict[Tensor, int]:
    """Reference per-tensor recursive evaluation (seed behavior).

    The oracle for :func:`repro.graph.evaluate_sizes` and the baseline
    the compiled path is benchmarked against.
    """
    sizes: Dict[Tensor, int] = {}
    for t in graph.tensors.values():
        sizes[t] = int(round(t.size_bytes().evalf(bindings)))
    return sizes


def _consumer_counts(graph: Graph) -> Dict[Tensor, int]:
    return {
        t: len(t.consumers) for t in graph.tensors.values()
    }


def _memory_greedy_order_reference(graph: Graph,
                                   sizes: Mapping[Tensor, int]) -> List[Op]:
    """Seed O(V·ready·degree) greedy scan — the behavioral oracle.

    :func:`repro.graph.memory_greedy_order` must yield the identical
    schedule; also the benchmark baseline.
    """
    op_index = {op: i for i, op in enumerate(graph.ops)}
    pending: Dict[Op, int] = {}
    remaining = _consumer_counts(graph)
    ready: List[Op] = []

    for op in graph.ops:
        producers = {t.producer for t in op.inputs if t.producer is not None}
        pending[op] = len(producers)
        if pending[op] == 0:
            ready.append(op)

    def delta(op: Op) -> int:
        grow = sum(
            sizes[t] for t in op.outputs if not t.is_persistent
        )
        shrink = 0
        seen = set()
        for t in op.inputs:
            if t.is_persistent or t in seen:
                continue
            seen.add(t)
            uses = sum(1 for c in t.consumers if c is op)
            if remaining[t] - uses == 0:
                shrink += sizes[t]
        return grow - shrink

    order: List[Op] = []
    while ready:
        best = min(ready, key=lambda op: (delta(op), op_index[op]))
        ready.remove(best)
        order.append(best)
        seen = set()
        for t in best.inputs:
            if t in seen:
                continue
            seen.add(t)
            remaining[t] -= sum(1 for c in t.consumers if c is best)
        for out in best.outputs:
            for consumer in out.consumers:
                pending[consumer] -= 1
                if pending[consumer] == 0:
                    ready.append(consumer)
    if len(order) != len(graph.ops):
        raise ValueError(f"graph {graph.name} has a cycle")
    return order
