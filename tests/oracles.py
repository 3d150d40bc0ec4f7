"""Seed reference implementations kept only as test and bench oracles.

Each is the original, straightforward form of a function the program
now computes faster; differential tests and
``benchmarks/bench_compile_eval.py`` hold the fast path to it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Mapping, Optional

from repro.graph import Graph, Op, Tensor
from repro.symbolic.expr import (
    Add,
    Ceil,
    Const,
    Expr,
    Floor,
    Log,
    Max,
    Min,
    Mul,
    Pow,
    Symbol,
    as_expr,
)
from repro.symbolic.poly import _sign_verdict, _term_signs, expand

__all__ = [
    "_evaluate_sizes_treewalk",
    "_memory_greedy_order_reference",
    "_exact_min_peak",
    "_consumer_counts",
    "_nonnegative_treewalk",
    "_expand_treewalk",
    "_degree_treewalk",
    "_coefficient_treewalk",
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
    schedule; also the benchmark baseline.  An op is priced by the
    liveness rule: only inputs that are neither weights nor graph
    inputs can die.
    """
    op_index = {op: i for i, op in enumerate(graph.ops)}
    pending: Dict[Op, int] = {}
    remaining = _consumer_counts(graph)
    ready: List[Op] = []

    for op in graph.ops:
        # one edge per produced input read, as the consumer lists hold
        pending[op] = sum(1 for t in op.inputs if t.producer is not None)
        if pending[op] == 0:
            ready.append(op)

    def delta(op: Op) -> int:
        grow = sum(
            sizes[t] for t in op.outputs if not t.is_persistent
        )
        shrink = 0
        seen = set()
        for t in op.inputs:
            # weights and graph inputs are pinned: they never die
            if t.is_persistent or t.producer is None or t in seen:
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


def _exact_min_peak(graph: Graph, sizes: Mapping[Tensor, int],
                    aliases: Optional[Mapping[Tensor, Tensor]] = None
                    ) -> int:
    """Minimum over all topological orders of the peak live bytes.

    The §2.1 footprint, found exactly by a bottleneck-path DP over the
    sets of ops already run: the live bytes once a set has run depend
    on the set alone, so the best peak of a set is the least, over its
    last op, of the best peak before that op and the live bytes while
    it runs.  Exponential in the graph's width; practical up to about
    20 ops.

    The liveness rule is written out here from the graph itself, not
    read from :mod:`repro.graph.traversal`: weights and graph inputs
    are pinned; every other tensor belongs to a buffer (its in-place
    chain's root under ``aliases``), charged at the root's size when
    the root is produced and freed once every reader of every member
    has run — never, if a member has no reader.
    """
    aliases = aliases or {}
    ops = list(graph.ops)
    bit = {op: 1 << i for i, op in enumerate(ops)}
    base = 0
    # root -> [size, producer bit, readers mask, never freed]
    buffers: Dict[Tensor, list] = {}
    for t in graph.tensors.values():
        if t.is_persistent or t.producer is None:
            base += sizes[t]
            continue
        root = t
        while root in aliases:
            root = aliases[root]
        buf = buffers.setdefault(
            root, [sizes[root], bit[root.producer], 0, False])
        for c in t.consumers:
            buf[2] |= bit[c]
        if not t.consumers:
            buf[3] = True
    needs = [sum({bit[t.producer] for t in op.inputs
                  if t.producer is not None}) for op in ops]
    charge = [sum(size for size, made, _, _ in buffers.values()
                  if made == bit[op]) for op in ops]

    def live(done: int) -> int:
        return base + sum(
            size for size, made, readers, forever in buffers.values()
            if done & made and (forever or readers & ~done))

    # best peak of each set of k ops already run, for k = 0, 1, ...
    layer = {0: base}
    for _ in ops:
        nxt: Dict[int, int] = {}
        for done, peak in layer.items():
            here = live(done)
            for i, op in enumerate(ops):
                if done & bit[op] or needs[i] & ~done:
                    continue
                step = max(peak, here + charge[i])
                after = done | bit[op]
                if step < nxt.get(after, step + 1):
                    nxt[after] = step
        layer = nxt
    return layer[(1 << len(ops)) - 1]


# -- posynomial tree walks: the pre-flat recursive forms of
# repro.symbolic.poly's expand / degree / coefficient / nonnegative

def _nonnegative_treewalk(expr: Expr) -> Optional[bool]:
    """Oracle for :func:`repro.symbolic.poly.nonnegative`: signs of the
    rebuilt tree."""
    return _sign_verdict(_term_signs(expand(as_expr(expr))))


def _expand_treewalk(expr: Expr) -> Expr:
    """Oracle for :func:`repro.symbolic.expand`: recursive distribution."""
    expr = as_expr(expr)
    if isinstance(expr, (Const, Symbol)):
        return expr
    if isinstance(expr, Add):
        return Add.of(*(_expand_treewalk(arg) for arg in expr.args()))
    if isinstance(expr, Pow):
        base = _expand_treewalk(expr.base)
        exponent = _expand_treewalk(expr.exponent)
        if (
            isinstance(base, Add)
            and isinstance(exponent, Const)
            and exponent.value.denominator == 1
            and exponent.value >= 2
        ):
            n = int(exponent.value)
            out = base
            for _ in range(n - 1):
                out = _mul_expand(out, base)
            return out
        return Pow.of(base, exponent)
    if isinstance(expr, Mul):
        parts = [_expand_treewalk(arg) for arg in expr.args()]
        result = parts[0]
        for part in parts[1:]:
            result = _mul_expand(result, part)
        return result
    if isinstance(expr, Max):
        return Max.of(*(_expand_treewalk(a) for a in expr.fargs))
    if isinstance(expr, Min):
        return Min.of(*(_expand_treewalk(a) for a in expr.fargs))
    if isinstance(expr, (Ceil, Floor, Log)):
        return type(expr).of(_expand_treewalk(expr.fargs[0]))
    raise TypeError(f"cannot expand {type(expr).__name__}")


def _mul_expand(a: Expr, b: Expr) -> Expr:
    a_terms = a.args() if isinstance(a, Add) else (a,)
    b_terms = b.args() if isinstance(b, Add) else (b,)
    products = [Mul.of(x, y) for x in a_terms for y in b_terms]
    return Add.of(*products)


def _term_degree(term: Expr, sym: Symbol) -> Optional[Fraction]:
    """Degree of a product-form term in ``sym``; None if non-posynomial."""
    if isinstance(term, Const):
        return Fraction(0)
    if isinstance(term, Symbol):
        return Fraction(1) if term == sym else Fraction(0)
    if isinstance(term, Pow):
        if not isinstance(term.exponent, Const):
            return None
        inner = _term_degree(term.base, sym)
        if inner is None:
            return None
        return inner * term.exponent.value
    if isinstance(term, Mul):
        total = Fraction(0)
        for base, exponent in term.factors:
            if not isinstance(exponent, Const):
                return None
            inner = _term_degree(base, sym)
            if inner is None:
                return None
            total += inner * exponent.value
        return total
    if isinstance(term, (Max, Min, Ceil, Floor, Log)):
        if sym in term.free_symbols():
            return None
        return Fraction(0)
    return None


def _degree_treewalk(expr: Expr, sym: Symbol) -> Fraction:
    """Oracle for :func:`repro.symbolic.degree`."""
    expr = _expand_treewalk(as_expr(expr))
    terms = expr.args() if isinstance(expr, Add) else (expr,)
    best = None
    for term in terms:
        d = _term_degree(term, sym)
        if d is None:
            raise ValueError(f"{expr} is not polynomial-like in {sym}")
        best = d if best is None else max(best, d)
    return best if best is not None else Fraction(0)


def _coefficient_treewalk(expr: Expr, sym: Symbol, power) -> Expr:
    """Oracle for :func:`repro.symbolic.coefficient`."""
    power = Fraction(power)
    expr = _expand_treewalk(as_expr(expr))
    terms = expr.args() if isinstance(expr, Add) else (expr,)
    matched = []
    for term in terms:
        d = _term_degree(term, sym)
        if d is None:
            raise ValueError(f"{expr} is not polynomial-like in {sym}")
        if d == power:
            matched.append(Mul.of(term, Pow.of(sym, Const(-power))))
    if not matched:
        return Const(0)
    return Add.of(*matched)
