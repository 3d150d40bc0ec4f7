"""Numerical-guard and solver-bracket tests (+ hypothesis properties).

Covers the ISSUE's guard contract: malformed bindings always surface
as E-BIND (never a raw KeyError/TypeError from the middle of a tape),
non-finite tape outputs raise E-NUMERIC, and bracket
expansion either converges to a true bracket or raises E-SOLVE with
convergence diagnostics.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BindingError, NumericError, SolveError
from repro.symbolic import (
    Log,
    bisect_increasing,
    compile_expr,
    expand_bracket,
    symbols,
)

x, y = symbols("x y")


class TestBindingValidation:
    def test_unknown_symbol_has_did_you_mean(self):
        program = compile_expr(x * 2 + y)
        with pytest.raises(BindingError) as info:
            program({"x": 1.0, "z": 2.0})
        assert "y" in (info.value.hint or "")

    def test_unbound_symbol_treewalk_is_bind_error(self):
        with pytest.raises(BindingError):
            (x + 1).evalf({})

    @pytest.mark.parametrize("bad", ["8", True, None, object()])
    def test_non_numeric_binding_value(self, bad):
        program = compile_expr(x + 1)
        with pytest.raises(BindingError):
            program({"x": bad})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_non_finite_binding_value(self, bad):
        program = compile_expr(x + 1)
        with pytest.raises(BindingError):
            program({"x": bad})

    def test_bind_error_is_still_value_error(self):
        program = compile_expr(x + 1)
        with pytest.raises(ValueError):
            program({})

    @given(st.one_of(
        st.text(max_size=8), st.booleans(), st.none(),
        st.floats(allow_nan=True, allow_infinity=True).filter(
            lambda v: not math.isfinite(v)),
        st.lists(st.integers(), max_size=3),
    ))
    @settings(max_examples=60, deadline=None)
    def test_property_bad_bindings_always_e_bind(self, bad):
        """Any non-finite / non-numeric binding is E-BIND, never a raw
        KeyError/TypeError escaping from the tape."""
        program = compile_expr(x * x + 3)
        try:
            program({"x": bad})
        except BindingError:
            pass  # the only acceptable failure
        else:  # pragma: no cover - would mean a guard regression
            pytest.fail(f"binding {bad!r} was silently accepted")


class TestNumericPolicy:
    def test_default_policy_raises_on_overflow(self):
        program = compile_expr(x ** y)
        with pytest.raises(NumericError) as info:
            program({"x": 1e200, "y": 2.0})
        assert "x=1e+200" in str(info.value)
        # an output that overflows to inf, and log(1)/log(1) = 0/0
        with pytest.raises(NumericError):
            compile_expr(x * 2)({"x": 8.99e307})
        with pytest.raises(NumericError):
            compile_expr(Log.of(x) / Log.of(y))({"x": 1, "y": 1})

    def test_eval_many_raises_with_row_inputs(self):
        program = compile_expr(x * x)
        with pytest.raises(NumericError) as info:
            program.eval_many([{"x": 2.0}, {"x": 1e200}])
        assert "1e+200" in str(info.value)
        # the clean row must not be blamed
        assert "x=2" not in str(info.value)


class TestBracketExpansion:
    def test_expands_to_true_bracket(self):
        fn = lambda v: v * v
        lo, hi = expand_bracket(fn, 1e6, 1.0, 2.0)
        assert fn(lo) <= 1e6 <= fn(hi)

    def test_shrinks_lo_for_low_targets(self):
        fn = lambda v: v
        lo, hi = expand_bracket(fn, 0.001, 1.0, 2.0)
        assert lo <= 0.001

    def test_unreachable_target_raises_with_diagnostics(self):
        saturating = lambda v: min(v, 10.0)
        with pytest.raises(SolveError) as info:
            expand_bracket(saturating, 100.0, 1.0, 2.0,
                           max_expansions=10)
        diag = info.value.diagnostics
        assert diag["target"] == 100.0
        assert diag["expansions"] == 10
        assert diag["f_hi"] == 10.0

    def test_nan_probe_raises_e_solve(self):
        fn = lambda v: math.sqrt(v - 4.0) if v >= 4.0 else float("nan")
        with pytest.raises(SolveError):
            expand_bracket(fn, 100.0, 1.0, 2.0)

    @given(st.floats(min_value=0.5, max_value=1e9),
           st.floats(min_value=0.1, max_value=4.0))
    @settings(max_examples=60, deadline=None)
    def test_property_expanded_roots_converge(self, target, seed_hi):
        """Bisecting the bracket expand_bracket grows from an arbitrary
        non-bracketing seed converges to the true root."""
        fn = lambda v: v * v  # root at sqrt(target)
        lo, hi = expand_bracket(fn, target, seed_hi / 2, seed_hi)
        root = bisect_increasing(fn, target, lo, hi)
        assert math.isclose(root, math.sqrt(target),
                            rel_tol=1e-6, abs_tol=1e-6)


class TestBisectModes:
    def test_clamp_keeps_seed_semantics(self):
        # target above the range: seed returned hi
        assert bisect_increasing(lambda v: v, 100.0, 0.0, 1.0) == 1.0
        # target below the range: seed returned lo
        assert bisect_increasing(lambda v: v, -5.0, 0.0, 1.0) == 0.0

    def test_non_finite_bracket_raises(self):
        with pytest.raises(SolveError):
            bisect_increasing(lambda v: v, 1.0, 0.0, float("inf"))

    def test_empty_bracket_raises_and_stays_value_error(self):
        with pytest.raises(ValueError):
            bisect_increasing(lambda v: v, 1.0, 2.0, 1.0)

    def test_nan_probe_raises_in_clamp_mode_too(self):
        with pytest.raises(SolveError):
            bisect_increasing(lambda v: float("nan"), 1.0, 0.0, 1.0)
