"""Tests for the parallelism planner (subbatch, DP, MP, case study)."""

import pytest

from repro.analysis import FirstOrderModel
from repro.hardware import V100_LIKE
from repro.planner import (
    choose_subbatch,
    plan_layer_parallel,
    run_case_study,
    scale_data_parallel,
    shard_embedding,
    split_stages,
    subbatch_curve,
)

#: the paper's word-LM Table 2 row, used as a fixed reference model
WORD_LM_PAPER = FirstOrderModel(
    domain="word_lm", gamma=481.0, lam=1755.0, mu=30784.0,
    delta=11.94, phi=50.0,
)
FRONTIER_PARAMS = 23.8e9


class TestSubbatch:
    def test_fig11_point_ordering(self):
        """ridge-match < min-latency < saturation (paper Fig. 11)."""
        choice = choose_subbatch(WORD_LM_PAPER, FRONTIER_PARAMS,
                                 V100_LIKE)
        assert choice.ridge_match < choice.saturation
        assert choice.min_latency < choice.saturation
        assert choice.chosen % 32 == 0

    def test_paper_ridge_match_near_73(self):
        """From the paper's own constants the ridge crossing is ~73."""
        choice = choose_subbatch(WORD_LM_PAPER, FRONTIER_PARAMS,
                                 V100_LIKE)
        assert 60 < choice.ridge_match < 90

    def test_chosen_near_paper_128(self):
        choice = choose_subbatch(WORD_LM_PAPER, FRONTIER_PARAMS,
                                 V100_LIKE)
        assert 96 <= choice.chosen <= 160  # paper picked 128

    def test_min_latency_about_1p5x_ridge(self):
        """§5.2.1: settles ≈1.5x above the ridge-match point."""
        choice = choose_subbatch(WORD_LM_PAPER, FRONTIER_PARAMS,
                                 V100_LIKE)
        ratio = choice.min_latency / choice.ridge_match
        assert 0.8 < ratio < 2.5

    def test_curve_monotonicity(self):
        pts = subbatch_curve(WORD_LM_PAPER, FRONTIER_PARAMS, V100_LIKE,
                             [2.0**k for k in range(12)])
        intensities = [p.intensity for p in pts]
        times = [p.time_per_sample for p in pts]
        assert intensities == sorted(intensities)
        assert times == sorted(times, reverse=True)

    def test_below_ridge_pays_heavily(self):
        """Fig. 11: small subbatches are badly memory-bound; the chosen
        point sits within tolerance of the asymptotic best."""
        choice = choose_subbatch(WORD_LM_PAPER, FRONTIER_PARAMS,
                                 V100_LIKE)
        quarter = subbatch_curve(WORD_LM_PAPER, FRONTIER_PARAMS,
                                 V100_LIKE, [choice.ridge_match / 4])[0]
        assert quarter.time_per_sample > \
            2.0 * choice.asymptotic_time_per_sample
        chosen = subbatch_curve(WORD_LM_PAPER, FRONTIER_PARAMS,
                                V100_LIKE, [choice.chosen])[0]
        assert chosen.time_per_sample <= \
            1.06 * choice.asymptotic_time_per_sample


class TestDataParallel:
    def _points(self, workers):
        return scale_data_parallel(
            local_step_time=10.0,
            local_step_flops=10.0 * V100_LIKE.achievable_flops,
            params=10e9,
            subbatch=128,
            samples_per_epoch=77e9,
            samples_per_step_per_worker=128 * 80,
            accel=V100_LIKE,
            workers=workers,
        )

    def test_epoch_time_decreases(self):
        pts = self._points([1, 16, 256, 4096])
        days = [p.epoch_days for p in pts]
        assert days == sorted(days, reverse=True)

    def test_utilization_declines(self):
        pts = self._points([1, 16, 256, 4096])
        utils = [p.flop_utilization for p in pts]
        assert utils == sorted(utils, reverse=True)
        assert utils[0] == pytest.approx(0.8, abs=0.01)

    def test_allreduce_time_saturates(self):
        pts = self._points([2, 1024])
        # 2(n-1)/n -> 2: at most 2x the n=2 cost (plus latency)
        assert pts[1].allreduce_time < 2.2 * pts[0].allreduce_time

    def test_global_batch_scales(self):
        pts = self._points([4])
        assert pts[0].global_batch == 512

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            self._points([0])


class TestModelParallel:
    @pytest.fixture(scope="class")
    def staged(self):
        from repro.models import build_word_lm

        model = build_word_lm(seq_len=6, vocab=3000, layers=2,
                              projection=32)
        # sizes large enough that stage compute dwarfs link latency
        bindings = {model.size_symbol: 512, model.batch: 64}
        prefixes = {
            "embedding": ["embedding", "embed", "step_split", "x_t",
                          "ids"],
            "lstm0": ["lstm0"],
            "lstm1": ["lstm1"],
            "output": ["w_out", "b_out", "logits", "xent", "loss",
                       "hidden_all"],
        }
        stages = split_stages(model.graph, prefixes, bindings)
        return model, bindings, stages

    def test_stage_costs_conserve_totals(self, staged):
        model, bindings, stages = staged
        total_flops = model.graph.total_flops().evalf(bindings)
        assert sum(s.flops for s in stages) == pytest.approx(total_flops)
        total_params = model.graph.parameter_bytes().evalf(bindings)
        assert sum(s.param_bytes for s in stages) == \
            pytest.approx(total_params)

    def test_embedding_stage_has_no_flops_share(self, staged):
        _, _, stages = staged
        emb = stages[0]
        assert emb.param_bytes > 0
        assert emb.flops < 0.05 * sum(s.flops for s in stages)

    def test_plan_speedup_bounded_by_stages(self, staged):
        _, _, stages = staged
        plan = plan_layer_parallel(
            stages, V100_LIKE,
            boundary_activation_bytes=4 * 64 * 512,
            boundary_transfers=2 * 3 * 6,
        )
        assert 1.0 <= plan.speedup <= len(stages)
        assert plan.step_time >= max(plan.stage_times)

    def test_shard_embedding_evens_memory(self, staged):
        _, _, stages = staged
        plan = plan_layer_parallel(
            stages, V100_LIKE,
            boundary_activation_bytes=4 * 64 * 512,
            boundary_transfers=2 * 3 * 6,
        )
        before = plan.stage_memory_bytes
        after = shard_embedding(plan)
        assert sum(after) == pytest.approx(sum(before))
        assert max(after) <= max(before) + 1e-6

    def test_water_fill_minimizes_maximum(self):
        """Synthetic check: pool spreads to equalize the lowest levels."""
        from repro.planner import LayerParallelPlan, StageCosts

        stages = [
            StageCosts("emb", 0, 0, param_bytes=30.0,
                       activation_bytes=0),
            StageCosts("a", 1, 1, param_bytes=1.0, activation_bytes=0),
            StageCosts("b", 1, 1, param_bytes=2.0, activation_bytes=0),
        ]
        plan = LayerParallelPlan(
            stages=stages, stage_times=[0, 1, 1], transfer_time=0,
            step_time=1, speedup=2,
            stage_memory_bytes=[60.0, 2.0, 4.0],
        )
        after = shard_embedding(plan)
        assert sum(after) == pytest.approx(66.0)
        assert max(after) == pytest.approx(22.0)  # fully leveled


class TestCaseStudy:
    @pytest.fixture(scope="class")
    def study(self):
        # scaled-down configuration: same ladder, faster to compute
        return run_case_study(seq_len=16, hidden=1024, vocab=40_000,
                              projection=256,
                              tokens_per_epoch=1e9,
                              data_parallel_options=(64, 32))

    def test_six_ladder_rows(self, study):
        assert len(study.rows) == 6
        stages = [r.stage for r in study.rows]
        assert "Cache-hierarchy-aware baseline" in stages[1]
        assert "Shard" in stages[-1]

    def test_utilization_declines_down_ladder(self, study):
        """Each optimization trades utilization for scale (paper: 80%
        -> 46% -> 34%/38% -> 14.5%).  Option 2 uses fewer workers than
        option 1, so — as in the paper — its utilization is higher."""
        utils = [r.flop_utilization for r in study.rows]
        assert utils[0] == pytest.approx(0.8, abs=0.01)
        assert utils[1] < utils[0]          # cache-awareness
        assert utils[2] < utils[1]          # + allreduce overhead
        assert utils[4] < utils[3]          # + pipeline imbalance
        assert utils[5] == pytest.approx(utils[4])  # sharding is free

    def test_data_parallelism_cuts_epoch_time(self, study):
        assert study.rows[2].days_per_epoch < \
            0.05 * study.rows[1].days_per_epoch

    def test_layer_parallelism_multiplies_accelerators(self, study):
        dp = study.rows[3]
        lp = study.rows[4]
        assert lp.accelerators == 4 * dp.accelerators
        assert len(lp.memory_per_accel_gb) == 4

    def test_sharding_evens_memory_at_no_time_cost(self, study):
        lp = study.rows[4]
        sh = study.rows[5]
        assert max(sh.memory_per_accel_gb) <= \
            max(lp.memory_per_accel_gb) + 1e-9
        assert sh.days_per_epoch == lp.days_per_epoch

    def test_algorithmic_speedup_positive(self, study):
        assert study.algorithmic_speedup > 2.0


class TestCaseStudyMemo:
    """Table 5 and Fig. 12 share one case study per resolved
    configuration; other configurations compute their own."""

    @pytest.fixture
    def builds(self, monkeypatch):
        from repro.planner import case_study

        calls = []
        real = case_study.build_word_lm

        def spy(**kwargs):
            calls.append(kwargs)
            return real(**kwargs)

        monkeypatch.setattr(case_study, "build_word_lm", spy)
        case_study._case_study.cache_clear()
        yield calls
        case_study._case_study.cache_clear()

    def test_table5_and_fig12_build_once(self, builds):
        from repro.reports import fig12, table5

        table5().render()
        fig12().render()
        assert len(builds) == 1
        assert run_case_study() is run_case_study(accel=V100_LIKE)
        assert len(builds) == 1

    def test_other_arguments_compute_their_own(self, builds):
        default = run_case_study()
        small = run_case_study(seq_len=16, hidden=1024, vocab=40_000,
                               projection=256, tokens_per_epoch=1e9,
                               data_parallel_options=[64, 32])
        assert len(builds) == 2
        assert small is not default
        assert small.rows != default.rows
        # a list and a tuple of worker options resolve to one entry
        again = run_case_study(seq_len=16, hidden=1024, vocab=40_000,
                               projection=256, tokens_per_epoch=1e9,
                               data_parallel_options=(64, 32))
        assert again is small and len(builds) == 2

    def test_shared_result_is_frozen(self):
        import dataclasses

        study = run_case_study()
        with pytest.raises(dataclasses.FrozenInstanceError):
            study.algorithmic_speedup = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            study.rows[0].days_per_epoch = 0.0
        assert isinstance(study.rows, tuple)
        assert isinstance(study.rows[0].memory_per_accel_gb, tuple)
