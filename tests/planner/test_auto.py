"""Tests for the automatic parallelism planner (§6.2.3 future work)."""

import pytest

from repro.analysis import FirstOrderModel
from repro.hardware import V100_LIKE
from repro.planner import plan_auto

WORD_LM = FirstOrderModel("word_lm", gamma=481.0, lam=1755.0,
                          mu=30784.0, delta=11.94, phi=500.0)
RESNET = FirstOrderModel("image", gamma=1111.0, lam=66.7,
                         mu=268862.0, delta=42.57, phi=50.0)


def _plan(model, params, samples, units, **kw):
    return plan_auto(model, params, samples_per_epoch=samples,
                     units_per_sample=units, **kw)


class TestFeasibility:
    def test_small_model_fits_one_accelerator(self):
        result = _plan(RESNET, 25e6, 1.3e6, 1, max_accelerators=64)
        assert result.best is not None
        assert result.best.model_parallel == 1
        assert result.best.memory_per_accel <= 0.8 * V100_LIKE.memory_bytes

    def test_frontier_word_lm_requires_model_parallelism(self):
        """11.94 B/param x 23.8 B params = 284 GB >> 32 GB."""
        result = _plan(WORD_LM, 23.8e9, 77e9, 80,
                       max_accelerators=4096)
        assert result.best is not None
        assert result.best.model_parallel >= 8

    def test_infeasible_when_memory_cannot_shard_enough(self):
        result = _plan(WORD_LM, 23.8e9, 77e9, 80,
                       max_accelerators=4, max_model_parallel=4)
        assert result.best is None
        assert any(not p.feasible for p in result.explored)
        assert any("memory" in p.infeasible_reason
                   for p in result.explored if not p.feasible)


class TestPlanQuality:
    def test_prefers_fewest_accelerators_near_target(self):
        """With a loose target, the planner should not max the budget."""
        result = _plan(RESNET, 25e6, 1.3e6, 1,
                       max_accelerators=4096, target_days=1000.0)
        assert result.met_target
        assert result.best.accelerators < 64

    def test_target_forces_scale_out(self):
        loose = _plan(RESNET, 732e6, 103e6, 1, max_accelerators=4096,
                      target_days=365.0)
        tight = _plan(RESNET, 732e6, 103e6, 1, max_accelerators=4096,
                      target_days=2.0)
        assert tight.best.accelerators > loose.best.accelerators
        assert tight.best.epoch_days <= 2.0

    def test_more_budget_never_slower(self):
        small = _plan(WORD_LM, 23.8e9, 77e9, 80, max_accelerators=512)
        big = _plan(WORD_LM, 23.8e9, 77e9, 80, max_accelerators=8192)
        if small.best is not None and big.best is not None:
            best_small = min(p.epoch_days for p in small.explored
                             if p.feasible)
            best_big = min(p.epoch_days for p in big.explored
                           if p.feasible)
            assert best_big <= best_small + 1e-9

    def test_memory_only_shards_add_no_speedup(self):
        """mp beyond pipeline_stages shards memory but not time."""
        result = _plan(WORD_LM, 23.8e9, 77e9, 80,
                       max_accelerators=4096, pipeline_stages=4)
        by_mp = {}
        for p in result.explored:
            if p.subbatch == 128 and p.data_parallel == 1:
                by_mp[p.model_parallel] = p
        assert by_mp[8].step_time == pytest.approx(by_mp[4].step_time,
                                                   rel=0.06)
        assert by_mp[8].memory_per_accel == pytest.approx(
            by_mp[4].memory_per_accel / 2
        )

    def test_utilization_consistent(self):
        result = _plan(RESNET, 25e6, 1.3e6, 1, max_accelerators=64)
        for p in result.explored:
            assert 0.0 < p.flop_utilization <= \
                V100_LIKE.compute_efficiency + 1e-9


class TestValidation:
    def test_needs_footprint_constants(self):
        bad = FirstOrderModel("x", 100.0, 100.0, 100.0, delta=None)
        with pytest.raises(ValueError):
            _plan(bad, 1e9, 1e9, 1)

    def test_stage_efficiency_bounds(self):
        with pytest.raises(ValueError):
            _plan(RESNET, 25e6, 1.3e6, 1, stage_efficiency=0.0)


class TestFusionAndCompression:
    def test_fusion_preserves_flops_reduces_bytes(self):
        from repro.graph import fused_total_bytes, fusion_groups
        from repro.models import build_word_lm

        m = build_word_lm(seq_len=6, vocab=300, layers=1)
        bind = {m.size_symbol: 64, m.batch: 16}
        plain = m.graph.total_bytes_accessed().evalf(bind)
        fused = fused_total_bytes(m.graph).evalf(bind)
        assert fused < plain
        groups = fusion_groups(m.graph)
        assert any(len(g) > 1 for g in groups)

    @pytest.mark.parametrize("key", ["word_lm", "char_lm", "nmt",
                                     "image"])
    def test_fused_total_is_the_per_op_sum(self, key):
        """The class-wise sum is the interned per-op sum itself, on the
        four graphs the fusion ablation costs."""
        from repro.graph import fused_op_bytes, fused_total_bytes, \
            fusion_groups
        from repro.models.registry import DOMAINS
        from repro.reports.ablations import _small_config
        from repro.symbolic import Add, Const

        g = DOMAINS[key].build_model(**_small_config(key)).graph
        groups = fusion_groups(g)
        fused = {op for group in groups for op in group}
        per_op = Add.of(Const(0),
                        *(fused_op_bytes(group) for group in groups),
                        *(op.bytes_accessed() for op in g.ops
                          if op not in fused))
        assert fused_total_bytes(g) is per_op

    def test_fusion_groups_are_disjoint_and_fusable_only(self):
        from repro.graph import fusion_groups
        from repro.models import build_word_lm

        m = build_word_lm(seq_len=4, vocab=100, layers=1)
        groups = fusion_groups(m.graph)
        seen = set()
        for group in groups:
            for op in group:
                assert op not in seen
                seen.add(op)
                assert op.kind != "matmul"

    def test_compression_shrinks_allreduce_only(self):
        from repro.planner import scale_data_parallel

        def point(ratio):
            return scale_data_parallel(
                local_step_time=10.0, local_step_flops=1e14,
                params=10e9, subbatch=128, samples_per_epoch=1e9,
                samples_per_step_per_worker=128, accel=V100_LIKE,
                workers=[256], compression_ratio=ratio,
            )[0]

        plain, squeezed = point(1.0), point(16.0)
        assert squeezed.allreduce_time < plain.allreduce_time / 8
        assert squeezed.step_time < plain.step_time

    def test_compression_below_one_rejected(self):
        from repro.planner import scale_data_parallel

        with pytest.raises(ValueError):
            scale_data_parallel(
                local_step_time=1.0, local_step_flops=1e12,
                params=1e9, subbatch=32, samples_per_epoch=1e6,
                samples_per_step_per_worker=32, accel=V100_LIKE,
                workers=[4], compression_ratio=0.5,
            )
