"""The subbatch chooser honours ``max_subbatch`` or refuses it.

``chosen`` is ``min(ceil32(min_latency), floor32(cap))``; ``capped``
says the cap, not the curve, set the answer; a cap with no grid point
under it, or one past the solver bracket, is an E-BIND.
"""

from __future__ import annotations

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sweep import sweep_domain
from repro.errors import BindingError
from repro.hardware import V100_LIKE
from repro.models.registry import DOMAINS
from repro.planner import choose_subbatch, subbatch_curve
from repro.planner.subbatch import SOLVE_BRACKET

DOMAIN_KEYS = sorted(DOMAINS)


@lru_cache(maxsize=None)
def _models(key):
    result = sweep_domain(key)
    return result.symbolic, result.fitted


def _time_per_sample(model, params, b):
    return subbatch_curve(model, params, V100_LIKE, [b])[0].time_per_sample


@given(key=st.sampled_from(DOMAIN_KEYS),
       which=st.sampled_from([0, 1]),
       log_params=st.floats(min_value=5.0, max_value=13.0),
       cap=st.floats(min_value=32.0, max_value=SOLVE_BRACKET[1]),
       tolerance=st.floats(min_value=0.01, max_value=0.5))
@settings(max_examples=200, deadline=None)
def test_property_chosen_honours_the_cap(key, which, log_params, cap,
                                         tolerance):
    model = _models(key)[which]
    params = 10.0 ** log_params
    choice = choose_subbatch(model, params, V100_LIKE,
                             tolerance=tolerance, max_subbatch=cap)
    assert 32 <= choice.chosen <= cap
    assert choice.chosen % 32 == 0
    for point in (choice.ridge_match, choice.saturation,
                  choice.min_latency):
        assert 1.0 <= point <= cap
    assert isinstance(choice.capped, bool)

    # the cap binds exactly when the uncapped choice needs room above it
    free = choose_subbatch(model, params, V100_LIKE, tolerance=tolerance)
    binds = (free.capped or free.ridge_match > cap
             or free.chosen > cap)
    assert choice.capped == binds
    if not choice.capped:
        assert choice.chosen == free.chosen
        limit = choice.asymptotic_time_per_sample
        assert _time_per_sample(model, params, choice.chosen) <= \
            (1.0 + tolerance) * limit * (1.0 + 1e-9)


@pytest.mark.parametrize("key", DOMAIN_KEYS)
@pytest.mark.parametrize("cap", [1, 16, 31, SOLVE_BRACKET[1] + 1])
def test_cap_without_a_grid_point_or_past_the_bracket_is_refused(key,
                                                                  cap):
    with pytest.raises(BindingError) as info:
        choose_subbatch(_models(key)[0], 1e9, V100_LIKE,
                        max_subbatch=cap)
    assert info.value.code == "E-BIND"
    assert "'max_subbatch'" in info.value.message


@pytest.mark.parametrize("key", DOMAIN_KEYS)
def test_cap_of_40_rounds_down_to_the_grid(key):
    choice = choose_subbatch(_models(key)[0], 1e9, V100_LIKE,
                             max_subbatch=40)
    assert choice.chosen == 32
    # image's roots sit at b = 1, where intensity is already past the
    # ridge: the curve's own answer, not the cap's
    assert choice.capped is (key != "image")
    if choice.capped:
        assert choice.min_latency == 40.0


def test_default_cap_never_binds_at_the_projected_targets():
    from repro.scaling.project import project_all

    for key, projection in project_all().items():
        choice = choose_subbatch(_models(key)[0],
                                 projection.target_params, V100_LIKE)
        assert not choice.capped, key


@pytest.mark.parametrize("cap", [713.0, 714.0, SOLVE_BRACKET[1]])
def test_root_at_a_grid_point_rounds_by_the_curve(cap):
    """nmt's fitted model at p = 10^6.8095... has its min-latency root
    within the solver's tolerance of b = 192: the solve lands at
    191.994, 192.001 or 191.999 as the cap moves, and rounding the
    solve itself chose 192 (outside the tolerance) or 224.  The grid
    point is read off the curve, so every cap gives the same answer."""
    model = _models("nmt")[1]
    params = 10.0 ** 6.8095389884822275
    tolerance = 0.24065179172236406
    choice = choose_subbatch(model, params, V100_LIKE,
                             tolerance=tolerance, max_subbatch=cap)
    assert abs(choice.min_latency - 192.0) < 0.01
    assert choice.chosen == 224 and not choice.capped
    limit = choice.asymptotic_time_per_sample
    assert _time_per_sample(model, params, 224) <= (1.0 + tolerance) * limit
    assert _time_per_sample(model, params, 192) > (1.0 + tolerance) * limit
