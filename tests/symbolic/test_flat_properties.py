"""Property-based equivalence suite for the flat posynomial core.

Two families of properties, each checked against an independent oracle
that the codebase keeps for exactly this purpose:

* **flat ≡ treewalk** — ``expand`` / ``degree`` / ``coefficient`` /
  ``degrees`` / ``nonnegative`` computed on the flat ``Poly`` arrays
  must agree —
  structurally, and on the ``ValueError`` domain — with the pre-flat
  recursive ``_*_treewalk`` implementations retained in
  ``tests/oracles.py``;
* **replay ≡ treewalk** — compiled tape replay (single and batch)
  must be *bit-identical* to the recursive ``evalf`` tree walk on
  scalar paths.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.symbolic import (
    Ceil,
    Floor,
    Log,
    Max,
    Min,
    as_expr,
    coefficient,
    compile_batch,
    compile_expr,
    degree,
    degrees,
    expand,
    symbols,
)
from repro.symbolic.poly import nonnegative
from repro.symbolic.printing import to_str
from tests.oracles import (
    _coefficient_treewalk,
    _degree_treewalk,
    _expand_treewalk,
    _nonnegative_treewalk,
)

x, y, z = symbols("x y z")
SYMS = (x, y, z)

# positive, moderately-sized rationals keep every engine well inside
# float range even after expansion raises degrees
coefficients = st.fractions(
    min_value=Fraction(1, 4), max_value=Fraction(32)
)
exponents = st.sampled_from(
    [1, 2, 3, Fraction(1, 2), Fraction(3, 2), -1]
)


@st.composite
def monomials(draw):
    """coeff * x**a * y**b * z**c with rational/fractional exponents."""
    expr = as_expr(draw(coefficients))
    for sym in SYMS:
        if draw(st.booleans()):
            expr = expr * sym ** as_expr(draw(exponents))
    return expr


@st.composite
def posynomials(draw, max_terms=4):
    terms = draw(st.lists(monomials(), min_size=1, max_size=max_terms))
    expr = terms[0]
    for term in terms[1:]:
        expr = expr + term
    return expr


@st.composite
def nested_posynomials(draw, depth=2):
    """Unexpanded posynomial structure: sums, products, small powers."""
    if depth == 0:
        return draw(posynomials())
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return draw(posynomials())
    left = draw(nested_posynomials(depth=depth - 1))
    if kind == 3:
        return left ** draw(st.sampled_from([2, 3]))
    right = draw(nested_posynomials(depth=depth - 1))
    return left + right if kind == 1 else left * right


@st.composite
def with_opaque_atoms(draw):
    """Posynomials optionally carrying max/log atoms (degree may be
    undefined in a symbol — both implementations must refuse alike)."""
    expr = draw(nested_posynomials(depth=1))
    if draw(st.booleans()):
        atom = draw(st.sampled_from([
            Log.of(x), Max.of(x, y), Log.of(as_expr(7)), Max.of(z, 3),
        ]))
        expr = expr * atom if draw(st.booleans()) else expr + atom
    return expr


@st.composite
def bindings(draw):
    return {
        s: float(draw(coefficients)) for s in SYMS
    }


@st.composite
def full_expressions(draw, depth=2):
    """Expressions over the whole node zoo (funcs included)."""
    if depth == 0:
        if draw(st.booleans()):
            return draw(st.sampled_from(SYMS))
        return as_expr(draw(coefficients))
    kind = draw(st.integers(0, 6))
    if kind == 0:
        return draw(st.sampled_from(SYMS))
    if kind == 1:
        return as_expr(draw(coefficients))
    left = draw(full_expressions(depth=depth - 1))
    if kind == 5:
        # keep every intermediate strictly positive (repro symbols are
        # positive quantities): floor(tiny) is 0 and log(tiny) < 0,
        # either of which turns a fractional power complex
        func = draw(st.sampled_from([Ceil, Floor, Log]))
        if func is Floor:
            return Floor.of(left + 1)
        if func is Log:
            return Log.of(left + 2)
        return Ceil.of(left)
    if kind == 6:
        return left ** as_expr(draw(exponents))
    right = draw(full_expressions(depth=depth - 1))
    if kind == 2:
        return left + right
    if kind == 3:
        return left * right
    func = draw(st.sampled_from([Max, Min]))
    return func.of(left, right)


class TestFlatVersusTreewalk:
    @given(nested_posynomials())
    @settings(max_examples=150, deadline=None)
    def test_expand_matches_treewalk(self, expr):
        assert expand(expr) == _expand_treewalk(expr)

    @given(with_opaque_atoms(), st.sampled_from(SYMS))
    @settings(max_examples=150, deadline=None)
    def test_degree_matches_treewalk(self, expr, sym):
        try:
            want = _degree_treewalk(expr, sym)
        except ValueError:
            with pytest.raises(ValueError):
                degree(expr, sym)
            return
        assert degree(expr, sym) == want

    @given(with_opaque_atoms(), st.sampled_from(SYMS),
           st.sampled_from([0, 1, 2, 3, Fraction(1, 2)]))
    @settings(max_examples=150, deadline=None)
    def test_coefficient_matches_treewalk(self, expr, sym, power):
        try:
            want = _coefficient_treewalk(expr, sym, power)
        except ValueError:
            with pytest.raises(ValueError):
                coefficient(expr, sym, power)
            return
        assert coefficient(expr, sym, power) == want

    @given(nested_posynomials())
    @settings(max_examples=100, deadline=None)
    def test_degrees_matches_per_symbol_treewalk(self, expr):
        want = {
            s: _degree_treewalk(expr, s) for s in expr.free_symbols()
        }
        assert degrees(expr) == want

    @given(st.one_of(with_opaque_atoms(), full_expressions()),
           st.one_of(with_opaque_atoms(), full_expressions()),
           st.sampled_from([0, 1, Fraction(1, 3), 2]))
    @settings(max_examples=150, deadline=None)
    def test_nonnegative_matches_treewalk(self, a, b, weight):
        # differences give mixed-sign coefficients; the weight 0 case
        # keeps the pure (all-positive) side covered too
        expr = a - b * weight
        assert nonnegative(expr) == _nonnegative_treewalk(expr)


class TestEngineBitIdentity:
    @given(full_expressions(), bindings())
    @settings(max_examples=150, deadline=None)
    def test_replay_matches_tree(self, expr, b):
        prog = compile_expr(expr)
        assert prog(b) == expr.evalf(b)

    @given(st.lists(full_expressions(), min_size=2, max_size=4),
           bindings())
    @settings(max_examples=75, deadline=None)
    def test_batch_engines_bit_identical(self, exprs, b):
        prog = compile_batch(exprs)
        assert prog(b) == [e.evalf(b) for e in exprs]


class TestPrintingStability:
    @given(st.lists(monomials(), min_size=2, max_size=5),
           st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_sum_renders_identically_for_any_insertion_order(
            self, terms, rng):
        expr = terms[0]
        for term in terms[1:]:
            expr = expr + term
        shuffled = list(terms)
        rng.shuffle(shuffled)
        other = shuffled[0]
        for term in shuffled[1:]:
            other = other + term
        assert to_str(other) == to_str(expr)

    @given(st.lists(st.sampled_from(SYMS), min_size=2, max_size=6),
           st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_product_renders_identically_for_any_insertion_order(
            self, factors, rng):
        expr = factors[0]
        for factor in factors[1:]:
            expr = expr * factor
        shuffled = list(factors)
        rng.shuffle(shuffled)
        other = shuffled[0]
        for factor in shuffled[1:]:
            other = other * factor
        assert to_str(other) == to_str(expr)
