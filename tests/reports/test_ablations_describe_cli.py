"""Tests for ablation studies, model describe, common rendering, CLI."""

import pytest

from repro.reports import (
    Series,
    Table,
    ablation_cache_size,
    ablation_interconnect,
    ablation_memory_capacity,
    ablation_precision,
    ablation_scheduler,
    ascii_chart,
    describe_domain,
    describe_model,
    si,
)


class TestAblationCache:
    @pytest.fixture(scope="class")
    def t(self):
        return ablation_cache_size(sizes_mb=(1.5, 6, 24),
                                   hidden=1024, subbatches=(64, 8))

    def test_traffic_decreases_with_cache(self, t):
        """The paper's §6.2.3 claim: bigger caches cut re-streaming."""
        for subbatch in ("64", "8"):
            traffic = [float(r[3]) for r in t.rows if r[0] == subbatch]
            assert traffic == sorted(traffic, reverse=True)

    def test_overhead_approaches_algorithmic(self, t):
        ratios = [float(r[4].rstrip("x")) for r in t.rows]
        assert all(r >= 0.999 for r in ratios)
        per_batch = [float(r[4].rstrip("x")) for r in t.rows
                     if r[0] == "64"]
        assert per_batch[-1] <= per_batch[0]


class TestAblationMemory:
    def test_language_needs_many_ways_at_32gb(self):
        t = ablation_memory_capacity(capacities_gb=(32, 512))
        col32 = t.headers.index("32 GB")
        col512 = t.headers.index("512 GB")
        for row in t.rows:
            ways32, ways512 = int(row[col32]), int(row[col512])
            assert ways512 <= ways32
            if "Character" in row[0]:
                assert ways32 >= 20   # paper: exceeds capacity 8-100x
            if "Image" in row[0]:
                assert ways32 == 1    # CNNs fit


class TestAblationInterconnect:
    def test_efficiency_monotone_in_bandwidth(self):
        t = ablation_interconnect(bandwidths_gbs=(7, 56, 448))
        effs = [float(r[3].rstrip("%")) for r in t.rows]
        assert effs == sorted(effs)
        assert effs[-1] > 95


class TestAblationPrecision:
    def test_fp16_halves_bytes_doubles_intensity(self):
        t = ablation_precision(hidden=256, subbatch=16)
        fp32, fp16 = t.rows
        assert float(fp16[1]) == pytest.approx(float(fp32[1]) / 2,
                                               rel=0.01)
        assert float(fp16[2]) == pytest.approx(float(fp32[2]) * 2,
                                               rel=0.01)
        assert float(fp16[3]) <= 0.55 * float(fp32[3])


class TestAblationScheduler:
    def test_strategies_ordered(self):
        t = ablation_scheduler(domains=("word_lm",))
        row = t.rows[0]
        greedy = float(row[2].rstrip("%"))
        inplace = float(row[3].rstrip("%"))
        lower = float(row[4].rstrip("%"))
        assert inplace <= greedy <= 100.0
        assert lower <= 100.0

    def test_one_greedy_schedule_per_domain(self):
        """The greedy order ignores in-place aliasing, so the plain and
        in-place estimates of a domain share one schedule."""
        from repro import obs

        schedules = obs.counter("graph.greedy.schedules")
        before = schedules.value
        ablation_scheduler()
        assert schedules.value - before == 3


class TestDescribe:
    def test_domain_report_contents(self):
        text = describe_domain("image", size=1, subbatch=8)
        assert "Analysis of resnet50" in text
        assert "parameters" in text
        assert "roofline step" in text
        assert "conv2d" in text  # dominant kind for ResNet

    def test_custom_model_report(self):
        from repro.models import build_word_lm

        m = build_word_lm(seq_len=4, vocab=50, layers=1)
        text = describe_model(m, size=16, subbatch=4)
        assert "word_lm" in text
        assert "matmul" in text

    def test_long_formula_clipped(self):
        from repro.reports.describe import _clip

        assert _clip("x" * 500).endswith("chars]")
        assert _clip("short") == "short"


class TestCommonRendering:
    def test_si_formatting(self):
        assert si(1.44e15) == "1.44P"
        assert si(23.8e9) == "23.8G"
        assert si(0) == "0"
        assert si(-2e6) == "-2M"
        assert si(5.0) == "5"

    def test_table_render_alignment(self):
        t = Table("T", ["a", "bb"], [["1", "2"], ["333", "4"]],
                  notes=["n"])
        text = t.render()
        assert "T" in text and "note: n" in text
        assert t.to_csv().splitlines()[0] == "a,bb"

    def test_ascii_chart_handles_log_scales(self):
        s = Series("s", [1, 10, 100], [1.0, 10.0, 100.0])
        chart = ascii_chart([s], log_x=True, log_y=True, width=20,
                            height=5)
        assert "o s" in chart

    def test_ascii_chart_empty(self):
        assert ascii_chart([Series("e", [], [])]) == "(no data)"

    def test_ascii_chart_filters_nonpositive_on_log(self):
        s = Series("s", [0, 1, 10], [0.5, 1.0, 2.0])
        chart = ascii_chart([s], log_x=True, width=20, height=5)
        assert chart  # the x=0 point is dropped, no crash


class TestCLI:
    def test_table4_runs(self, capsys):
        from repro.cli import main

        assert main(["table4"]) == 0
        out = capsys.readouterr().out
        assert "Table 4" in out

    def test_csv_mode(self, capsys):
        from repro.cli import main

        assert main(["table1", "--csv"]) == 0
        out = capsys.readouterr().out
        assert "," in out.splitlines()[0]

    def test_describe_mode(self, capsys):
        from repro.cli import main

        assert main(["describe", "--domain", "image", "--size", "1",
                     "--subbatch", "8"]) == 0
        out = capsys.readouterr().out
        assert "Analysis of resnet50" in out

    def test_unknown_exhibit_rejected(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["table9"])

    def test_trace_and_metrics_flags(self, capsys, tmp_path):
        """--trace writes Chrome-trace-valid JSON; --metrics prints the
        summary to stderr so --csv stdout stays pipeable."""
        import json

        from repro import obs
        from repro.cli import main

        obs.clear()
        trace_path = tmp_path / "t.json"
        try:
            # --no-cache so generation really runs (a result-store hit
            # would skip the report.table1 span this test asserts on)
            assert main(["table1", "--csv", "--trace", str(trace_path),
                         "--metrics", "--no-cache"]) == 0
        finally:
            obs.disable()
            obs.clear()

        captured = capsys.readouterr()
        assert "," in captured.out.splitlines()[0]   # CSV untouched
        assert "Metrics summary" in captured.err
        assert "analysis.sweep.cache.hit" in captured.err

        with open(trace_path) as handle:
            payload = json.load(handle)
        events = payload["traceEvents"]
        assert any(e["ph"] == "X" and e["name"] == "report.table1"
                   for e in events)
        assert any(e["ph"] == "M" for e in events)
        assert all(e["ts"] >= 0 for e in events if e["ph"] == "X")
        assert "metrics" in payload
