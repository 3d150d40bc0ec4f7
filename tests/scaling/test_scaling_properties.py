"""Property-based tests for the scaling laws (hypothesis)."""

import math
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scaling import LearningCurve, ModelSizeCurve, fit_power_law
from repro.symbolic import invert_power_law, power_law

alphas = st.floats(min_value=0.1, max_value=100.0, allow_nan=False)
beta_g = st.floats(min_value=-0.5, max_value=-0.02, allow_nan=False)
beta_p = st.floats(min_value=0.5, max_value=0.99, allow_nan=False)
sizes = st.floats(min_value=1e3, max_value=1e12, allow_nan=False)
targets = st.floats(min_value=1e-6, max_value=1e3, allow_nan=False)


@given(alphas, beta_g, targets)
@settings(max_examples=150, deadline=None)
def test_power_law_inversion_roundtrip(alpha, beta, target):
    import pytest

    log_x = math.log(target / alpha) / beta
    if abs(log_x) > 600:  # beyond (or near) the float range
        # invert_power_law's documented contract: it raises exactly
        # when the solution exp(log_x) exceeds the float range
        if log_x > math.log(sys.float_info.max):
            with pytest.raises(ValueError):
                invert_power_law(alpha, beta, target)
        return
    m = invert_power_law(alpha, beta, target)
    assert math.isclose(power_law(alpha, beta, m), target, rel_tol=1e-9)


def test_power_law_inversion_overflow_is_clear_error():
    """A nearly-flat curve asked for a huge improvement overflows."""
    import pytest

    with pytest.raises(ValueError, match="unreachable"):
        invert_power_law(17.0, -0.0234375, 1e-06)


@given(alphas, beta_g, sizes, sizes)
@settings(max_examples=150, deadline=None)
def test_learning_curve_monotone(alpha, beta, m1, m2):
    curve = LearningCurve(alpha=alpha, beta=beta)
    lo, hi = min(m1, m2), max(m1, m2)
    assert curve.error(hi) <= curve.error(lo) + 1e-12


@given(alphas, beta_g, st.floats(min_value=1.01, max_value=10.0))
@settings(max_examples=150, deadline=None)
def test_data_scale_consistent_with_curve(alpha, beta, improvement):
    """Scaling data by data_scale(current, target) must land on target."""
    curve = LearningCurve(alpha=alpha, beta=beta)
    m0 = 1e6
    current = curve.error(m0)
    target = current / improvement
    scale = curve.data_scale(current, target)
    assert scale >= 1.0
    assert math.isclose(curve.error(m0 * scale), target, rel_tol=1e-9)


@given(beta_p, st.floats(min_value=1.0, max_value=1e4))
@settings(max_examples=150, deadline=None)
def test_model_scale_sublinear(beta, data_scale):
    curve = ModelSizeCurve(sigma=1e-3, beta=beta)
    assert curve.model_scale(data_scale) <= data_scale + 1e-9
    # at least square root of the data growth (the paper's bound)
    assert curve.model_scale(data_scale) >= data_scale**0.5 - 1e-9


@given(alphas, beta_g)
@settings(max_examples=100, deadline=None)
def test_fit_recovers_exact_power_law(alpha, beta):
    xs = [1e3, 1e4, 1e5, 1e6, 1e7]
    ys = [alpha * x**beta for x in xs]
    fit = fit_power_law(xs, ys)
    assert math.isclose(fit.scale, alpha, rel_tol=1e-6)
    assert math.isclose(fit.exponent, beta, rel_tol=1e-6, abs_tol=1e-9)
