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

    def test_greedy_toggle(self, small_model, monkeypatch):
        """The greedy schedule runs up to GREEDY_OP_LIMIT ops only."""
        m = small_model
        bindings = {m.size_symbol: 16, m.batch: 4}
        with_greedy = estimate_footprint(m, bindings)
        monkeypatch.setattr("repro.analysis.footprint.GREEDY_OP_LIMIT",
                            len(m.graph.ops) - 1)
        without = estimate_footprint(m, bindings)
        assert without.greedy_bytes == without.program_order_bytes
        assert with_greedy.program_order_bytes == \
            without.program_order_bytes
        assert with_greedy.minimal_bytes <= without.minimal_bytes


@pytest.fixture(scope="module")
def small_nmt():
    """The scheduler ablation's NMT, whose bound in-place chains lower."""
    from repro.models.registry import DOMAINS

    return DOMAINS["nmt"].build_model(seq_len=10, vocab=5000)


def test_inplace_bound_bounds_the_inplace_estimate(small_nmt):
    """An in-place chain's root is charged once in the bound, as in the
    schedules it bounds: the aliased bound stays under the aliased
    estimate, and under the plain bound."""
    m = small_nmt
    bindings = {m.size_symbol: 512, m.batch: 8}
    plain = estimate_footprint(m, bindings)
    inplace = estimate_footprint(m, bindings, inplace=True)
    assert inplace.lower_bound_bytes <= inplace.minimal_bytes
    assert inplace.lower_bound_bytes < plain.lower_bound_bytes


def seed_bounds(graph, sizes, aliases=None):
    """The seed's persistent bytes and op working-set lower bound; with
    ``aliases``, an op's live tensors are charged once per in-place
    chain, at its root's size."""
    aliases = aliases or {}

    def root(t):
        while t in aliases:
            t = aliases[t]
        return t

    persistent = sum(
        sizes[t] for t in graph.tensors.values()
        if t.is_persistent or t.producer is None
    )
    working_set = 0
    for op in graph.ops:
        local = sum(
            sizes[t] for t in {root(t) for t in op.inputs + op.outputs}
            if not (t.is_persistent or t.producer is None)
        )
        working_set = max(working_set, local)
    return persistent, persistent + working_set


@pytest.mark.parametrize("inplace", [False, True])
@pytest.mark.parametrize("which,size,batch", [
    ("image", 1, 4), ("image", 2, 32),
    ("word_lm", 16, 4), ("word_lm", 48, 64), ("nmt", 512, 8),
])
def test_footprint_bounds_match_seed_formula(small_model, small_nmt, which,
                                             size, batch, inplace):
    from repro.graph import evaluate_sizes, inplace_aliases
    from repro.models.registry import build_symbolic

    m = {"image": build_symbolic("image"), "word_lm": small_model,
         "nmt": small_nmt}[which]
    bindings = {m.size_symbol: size, m.batch: batch}
    est = estimate_footprint(m, bindings, inplace=inplace)
    want = seed_bounds(m.graph, evaluate_sizes(m.graph, bindings),
                       inplace_aliases(m.graph) if inplace else None)
    assert (est.persistent_bytes, est.lower_bound_bytes) == want


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

    def test_spelled_out_defaults_share_the_default_entry(self,
                                                          monkeypatch):
        from collections import OrderedDict

        from repro import obs
        from repro.analysis import sweep as sweep_mod
        from repro.models.registry import get_domain

        monkeypatch.setattr(sweep_mod, "_DEFAULT_SWEEPS", OrderedDict())
        entry = get_domain("image")
        hit = obs.counter("analysis.sweep.cache.hit")
        miss = obs.counter("analysis.sweep.cache.miss")
        hits, misses = hit.value, miss.value
        default = sweep_domain("image", include_footprint=False)
        # spelled as /v1/sweep sends them: float sizes, int subbatch
        explicit = sweep_domain(
            "image", include_footprint=False, subbatch=entry.subbatch,
            sizes=[float(s) for s in entry.sweep_sizes])
        assert explicit is default
        assert (hit.value - hits, miss.value - misses) == (1, 1)

    def test_engines_agree(self):
        """The compiled sweep engine matches rows rebuilt from the seed
        oracles: ``Expr.evalf`` of each aggregate, and for the
        footprint the tree-walk tensor sizes under program order and
        the reference greedy schedule."""
        from repro.analysis import StepCounts
        from repro.analysis.sweep import _sweep_domain_uncached
        from repro.graph import liveness_peak, topological_order
        from tests.oracles import (
            _evaluate_sizes_treewalk,
            _memory_greedy_order_reference,
        )
        from repro.models.registry import build_symbolic

        result = _sweep_domain_uncached("image", sizes=[1, 2])
        counts = StepCounts(build_symbolic("image"))
        graph = counts.model.graph
        assert [r.size for r in result.rows] == [1, 2]
        for row in result.rows:
            bindings = counts.bind(row.size, result.subbatch)
            sizes = _evaluate_sizes_treewalk(graph, bindings)
            orders = (topological_order(graph),
                      _memory_greedy_order_reference(graph, sizes))
            step_bytes = counts.step_bytes.evalf(bindings)
            oracle = {
                "params": counts.params.evalf(bindings),
                "flops_per_sample":
                    counts.flops_per_sample.evalf(bindings),
                "step_bytes": step_bytes,
                "intensity":
                    counts.step_flops.evalf(bindings) / step_bytes,
                "footprint_bytes": min(
                    liveness_peak(graph, order, sizes)
                    for order in orders),
                "bytes_fixed": counts.bytes_fixed.evalf(bindings),
                "bytes_per_sample":
                    counts.bytes_per_sample.evalf(bindings),
            }
            for name, want in oracle.items():
                assert getattr(row, name) == pytest.approx(
                    want, rel=1e-9), name

    def test_sweep_without_footprint_has_no_delta(self):
        result = sweep_domain("image", sizes=(1, 2),
                              include_footprint=False)
        assert result.symbolic.delta is None
