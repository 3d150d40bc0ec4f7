"""Tests for footprint estimation and the Fig 7-10 sweep machinery."""

import pytest

from repro.analysis import estimate_footprint, sweep_domain
from repro.models import build_word_lm


@pytest.fixture(scope="module")
def small_model():
    return build_word_lm(seq_len=5, vocab=200, layers=1)


class TestFootprint:
    def test_bounds_ordering(self, small_model):
        m = small_model
        est = estimate_footprint(m, {m.size_symbol: 16, m.batch: 4})
        assert est.lower_bound_bytes <= est.minimal_bytes
        assert est.minimal_bytes <= est.program_order_bytes
        assert est.greedy_bytes >= est.persistent_bytes

    def test_footprint_grows_with_batch(self, small_model):
        m = small_model
        small = estimate_footprint(m, {m.size_symbol: 16, m.batch: 2})
        big = estimate_footprint(m, {m.size_symbol: 16, m.batch: 64})
        assert big.minimal_bytes > small.minimal_bytes
        # only the input tensors' persistent share grows with batch
        input_delta = sum(
            t.size_bytes().evalf({m.size_symbol: 16, m.batch: 64})
            - t.size_bytes().evalf({m.size_symbol: 16, m.batch: 2})
            for t in m.graph.inputs()
        )
        assert big.persistent_bytes - small.persistent_bytes == \
            pytest.approx(input_delta)

    def test_footprint_grows_with_model(self, small_model):
        m = small_model
        small = estimate_footprint(m, {m.size_symbol: 8, m.batch: 4})
        big = estimate_footprint(m, {m.size_symbol: 64, m.batch: 4})
        assert big.minimal_bytes > small.minimal_bytes

    def test_weights_floor(self, small_model):
        """Footprint at least covers the persistent fp32 weights; note
        gradients may die before all coexist (updates interleave), so
        8 B/param is NOT a valid lower bound for the schedule."""
        m = small_model
        bindings = {m.size_symbol: 32, m.batch: 2}
        est = estimate_footprint(m, bindings)
        params = m.graph.parameter_count().evalf(bindings)
        assert est.minimal_bytes >= 4 * params
        assert est.persistent_bytes >= 4 * params

    def test_greedy_toggle(self, small_model):
        m = small_model
        bindings = {m.size_symbol: 16, m.batch: 4}
        with_greedy = estimate_footprint(m, bindings, use_greedy=True)
        without = estimate_footprint(m, bindings, use_greedy=False)
        assert without.greedy_bytes == without.program_order_bytes
        assert with_greedy.minimal_bytes <= without.minimal_bytes


class TestSweep:
    def test_small_sweep_structure(self):
        result = sweep_domain("image", sizes=[1, 2],
                              include_footprint=False)
        assert [r.size for r in result.rows] == [1, 2]
        assert result.rows[1].params > result.rows[0].params
        assert result.symbolic is not None
        assert result.fitted is not None

    def test_flops_monotone_in_size(self):
        result = sweep_domain("image", sizes=[1, 2, 3],
                              include_footprint=False)
        fl = [r.flops_per_sample for r in result.rows]
        assert fl == sorted(fl)

    def test_sweep_memoized_and_immutable(self):
        """The cache shares one frozen master: no defensive deep copy
        per hit, and any attempted mutation raises instead of silently
        corrupting later consumers."""
        import dataclasses

        a = sweep_domain("image", sizes=[1, 2], include_footprint=False)
        b = sweep_domain("image", sizes=[1, 2], include_footprint=False)
        assert a is b  # shared immutable master, not a copy
        assert isinstance(a.rows, tuple)
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.rows[0].params = -1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.symbolic.phi = 123.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.subbatch = 7
        # derived copies still work, and leave the master untouched
        tweaked = dataclasses.replace(a.symbolic, phi=123.0)
        assert tweaked.phi == 123.0
        c = sweep_domain("image", sizes=[1, 2], include_footprint=False)
        assert c.symbolic.phi == a.symbolic.phi
        assert c.rows == b.rows

    def test_sweep_cache_is_bounded(self):
        from repro.analysis import sweep as sweep_mod

        sweep_domain("image", sizes=[1, 2], include_footprint=False)
        sweep_domain("image", sizes=[2, 3], include_footprint=False)
        assert len(sweep_mod._SWEEP_CACHE) <= sweep_mod._SWEEP_CACHE_MAX

    def test_novel_sweeps_never_evict_the_default_sweep(self):
        from repro import obs
        from repro.analysis import sweep as sweep_mod

        default = sweep_domain("image", include_footprint=False)
        for i in range(sweep_mod._SWEEP_CACHE_MAX + 8):
            sweep_domain("image", sizes=[1 + i, 2 + i],
                         include_footprint=False)
        assert len(sweep_mod._SWEEP_CACHE) <= sweep_mod._SWEEP_CACHE_MAX
        hits = obs.counter("analysis.sweep.cache.hit").value
        assert sweep_domain("image", include_footprint=False) is default
        assert obs.counter("analysis.sweep.cache.hit").value == hits + 1

    def test_engines_agree(self):
        """Compiled/vectorized sweep matches the seed tree-walk path."""
        from repro.analysis.sweep import _sweep_domain_uncached

        fast = _sweep_domain_uncached("image", sizes=[1, 2],
                                      engine="compiled")
        slow = _sweep_domain_uncached("image", sizes=[1, 2],
                                      engine="treewalk")
        for ra, rb in zip(fast.rows, slow.rows):
            for name in ("params", "flops_per_sample", "step_bytes",
                         "intensity", "footprint_bytes", "bytes_fixed",
                         "bytes_per_sample"):
                va, vb = getattr(ra, name), getattr(rb, name)
                assert va == pytest.approx(vb, rel=1e-9), name

    def test_sweep_without_footprint_has_no_delta(self):
        result = sweep_domain("image", sizes=(1, 2),
                              include_footprint=False)
        assert result.symbolic.delta is None
