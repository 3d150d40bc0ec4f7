"""Tests for the abstract-interpretation engine (repro.check.absint).

Two layers:

* unit tests for the interval transfer functions and the binding
  domain;
* hypothesis soundness properties — for random expressions over random
  positive domains, the concrete ``evalf``/tape-replay result always
  lies inside the computed interval, and every definite monotonicity
  verdict agrees with a finite-difference probe of the real function.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.absint import (
    CONSTANT,
    NONDECREASING,
    NONINCREASING,
    UNKNOWN,
    BindingDomain,
    Interval,
    interval_of_expr,
    interval_of_tape,
    monotonicity,
    probe_monotonicity,
    sign_of,
)
from repro.symbolic import (
    Ceil,
    Floor,
    Log,
    Max,
    Min,
    as_expr,
    compile_expr,
    symbols,
)

x, y, z = symbols("x y z")
SYMS = (x, y, z)


class TestInterval:
    def test_point_and_contains(self):
        p = Interval.point(3.0)
        assert p.lo == p.hi == 3.0
        assert p.contains(3.0)
        assert not p.contains(4.0)
        assert Interval(1.0, 2.0).contains(1.5)

    def test_add_and_scale(self):
        a = Interval(1.0, 2.0)
        b = Interval(10.0, 20.0)
        s = a.add(b)
        assert (s.lo, s.hi) == (11.0, 22.0)
        assert (a.scale(-2.0).lo, a.scale(-2.0).hi) == (-4.0, -2.0)

    def test_mul_signs(self):
        a = Interval(-2.0, 3.0)
        b = Interval(-5.0, 4.0)
        m = a.mul(b)
        assert (m.lo, m.hi) == (-15.0, 12.0)

    def test_mul_zero_times_inf_is_sound(self):
        # the 0*inf corner must widen, not poison, the product
        a = Interval(0.0, 1.0)
        b = Interval(0.0, math.inf)
        m = a.mul(b)
        assert m.lo <= 0.0 and m.hi == math.inf

    def test_pow_even_exponent_dips_to_zero(self):
        # x in [-2, 3], x^2 reaches 0 inside the interval
        sq = Interval(-2.0, 3.0).pow(Interval.point(2.0))
        assert sq.lo == 0.0 and sq.hi == 9.0

    def test_pow_spanning_one_keeps_interior_extremum(self):
        # b**e over b in [0.5, 2], e in [-1, 1]: corners alone miss
        # nothing here, but the base=1 interior point must stay inside
        p = Interval(0.5, 2.0).pow(Interval(-1.0, 1.0))
        assert p.contains(1.0)
        assert p.lo <= 0.5 and p.hi >= 2.0

    def test_log_of_nonpositive_flags_nan(self):
        assert Interval(-1.0, 2.0).log().maybe_nan
        assert not Interval(1.0, 2.0).log().maybe_nan

    def test_ceil_floor_match_replay_epsilon(self):
        # the tape computes ceil(x - 1e-12) / floor(x + 1e-12); the
        # transfer function must mirror that exactly at integer inputs
        c = Interval.point(4.0).ceil()
        f = Interval.point(4.0).floor()
        assert (c.lo, c.hi) == (4.0, 4.0)
        assert (f.lo, f.hi) == (4.0, 4.0)

    def test_max_min_hull(self):
        a = Interval(1.0, 5.0)
        b = Interval(3.0, 4.0)
        assert (a.max_(b).lo, a.max_(b).hi) == (3.0, 5.0)
        assert (a.min_(b).lo, a.min_(b).hi) == (1.0, 4.0)

    def test_finite_property(self):
        assert Interval(1.0, 2.0).finite
        assert not Interval(1.0, math.inf).finite
        assert not Interval(1.0, 2.0, maybe_nan=True).finite


class TestBindingDomain:
    def test_get_falls_back_to_default(self):
        d = BindingDomain({"x": (2.0, 8.0)})
        assert (d.get("x").lo, d.get("x").hi) == (2.0, 8.0)
        got = d.get("never_declared")
        assert got.lo == 1.0 and got.hi == 65536.0

    def test_sample_points_stay_inside(self):
        d = BindingDomain({"x": (2.0, 8.0), "y": (1.0, 100.0)})
        pts = d.sample(["x", "y"])
        assert pts
        for binding in pts:
            assert d.contains(binding)

    def test_contains_rejects_out_of_range(self):
        d = BindingDomain({"x": (2.0, 8.0)})
        assert not d.contains({"x": 100.0})


class TestSignOf:
    def test_posynomial_is_positive(self):
        assert sign_of(x * y + 3, BindingDomain({})) == "+"

    def test_negated_posynomial_is_negative(self):
        assert sign_of(as_expr(-2) * x, BindingDomain({})) == "-"

    def test_mixed_is_unknown(self):
        d = BindingDomain({"x": (1.0, 10.0)})
        assert sign_of(x - 5, d) == "±"


# -- hypothesis soundness ---------------------------------------------

coefficients = st.floats(min_value=0.25, max_value=32.0,
                         allow_nan=False)
exponents = st.sampled_from([1, 2, 3, -1])


@st.composite
def positive_expressions(draw, depth=2):
    """Random expressions over the positive node zoo."""
    if depth == 0:
        if draw(st.booleans()):
            return draw(st.sampled_from(SYMS))
        return as_expr(draw(coefficients))
    kind = draw(st.integers(0, 6))
    if kind == 0:
        return draw(st.sampled_from(SYMS))
    if kind == 1:
        return as_expr(draw(coefficients))
    left = draw(positive_expressions(depth=depth - 1))
    if kind == 5:
        func = draw(st.sampled_from([Ceil, Floor, Log]))
        if func is Floor:
            return Floor.of(left + 1)
        if func is Log:
            return Log.of(left + 2)
        return Ceil.of(left)
    if kind == 6:
        return left ** as_expr(draw(exponents))
    right = draw(positive_expressions(depth=depth - 1))
    if kind == 2:
        return left + right
    if kind == 3:
        return left * right
    func = draw(st.sampled_from([Max, Min]))
    return func.of(left, right)


@st.composite
def domains(draw):
    ranges = {}
    for sym in SYMS:
        lo = draw(st.floats(min_value=0.5, max_value=64.0))
        width = draw(st.floats(min_value=0.0, max_value=64.0))
        ranges[sym.name] = (lo, lo + width)
    return BindingDomain(ranges)


@st.composite
def bindings_in(draw, domain):
    out = {}
    for sym in SYMS:
        iv = domain.get(sym.name)
        out[sym] = draw(st.floats(min_value=iv.lo, max_value=iv.hi))
    return out


class TestSoundness:
    @given(positive_expressions(), domains(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_concrete_eval_inside_interval(self, expr, domain, data):
        binding = data.draw(bindings_in(domain))
        try:
            value = expr.evalf(binding)
        except (OverflowError, ValueError, ZeroDivisionError):
            return  # concrete eval left the float domain; nothing to check
        iv = interval_of_expr(expr, domain)
        if isinstance(value, complex):
            assert iv.maybe_nan  # abstraction must have flagged it
            return
        assert iv.contains(value), \
            f"{value} outside {iv} for {expr} over {domain}"

    @given(positive_expressions(), domains(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_tape_replay_inside_tape_interval(self, expr, domain, data):
        binding = data.draw(bindings_in(domain))
        prog = compile_expr(expr)
        iv = interval_of_tape(prog, domain)[prog.out_slots[0]]
        try:
            value = prog(binding)
        except Exception:
            return  # replay failed concretely (overflow/guard); no claim
        assert iv.contains(value), \
            f"replay {value} outside {iv} for {expr}"

    @given(positive_expressions(), st.sampled_from(SYMS), domains())
    @settings(max_examples=100, deadline=None)
    def test_monotonicity_agrees_with_finite_difference(
            self, expr, sym, domain):
        verdict = monotonicity(expr, sym, domain)
        if verdict == UNKNOWN:
            return  # no claim made, nothing to falsify
        probed = probe_monotonicity(expr, sym, domain)
        if probed == UNKNOWN:
            return  # probe failed concretely; the proof still stands
        if verdict == CONSTANT:
            assert probed in (CONSTANT, NONDECREASING, NONINCREASING)
        else:
            # a definite direction must never contradict the oracle
            assert probed in (verdict, CONSTANT), \
                f"{expr} d/d{sym.name}: proved {verdict}, probed {probed}"
