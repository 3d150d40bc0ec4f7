"""Percentile estimation, OpenMetrics exposition, and state isolation."""

import math

import pytest

from repro import obs
from repro.obs.export import openmetrics_text, write_openmetrics
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    bucket_edges,
    histogram_percentiles,
    percentile_from_buckets,
)


class TestPercentileFromBuckets:
    def test_dense_and_sparse_agree(self):
        hist = Histogram("h")
        for value in (3, 5, 9, 17, 33, 100):
            hist.observe(value)
        sparse = {str(i): n for i, n in enumerate(hist.buckets) if n}
        for q in (0.0, 0.25, 0.5, 0.9, 1.0):
            dense = percentile_from_buckets(hist.buckets, hist.count, q)
            assert percentile_from_buckets(sparse, hist.count, q) == dense

    def test_interpolates_inside_bucket(self):
        # 10 observations, all in bucket 4 = (8, 16]
        buckets = {4: 10}
        p50 = percentile_from_buckets(buckets, 10, 0.5)
        lo, hi = bucket_edges(4)
        assert lo < p50 < hi
        assert p50 == lo + 0.5 * (hi - lo)

    def test_clamps_to_observed_extrema(self):
        buckets = {4: 10}
        assert percentile_from_buckets(buckets, 10, 0.99,
                                       vmax=11.0) == 11.0
        assert percentile_from_buckets(buckets, 10, 0.01,
                                       vmin=9.0) == 9.0

    def test_empty_and_invalid(self):
        assert percentile_from_buckets({}, 0, 0.5) == 0.0
        with pytest.raises(ValueError):
            percentile_from_buckets({0: 1}, 1, 1.5)

    def test_histogram_percentile_bounded_by_bucket_width(self):
        hist = Histogram("h")
        for value in range(1, 101):
            hist.observe(value)
        # interpolated estimates stay within the exact window and are
        # no worse than the 2x the log2 sketch guarantees
        for q in (0.5, 0.95, 0.99):
            estimate = hist.percentile(q)
            assert hist.min <= estimate <= hist.max


class TestHistogramPercentilesHelper:
    def test_returns_default_quantiles(self):
        reg = MetricsRegistry()
        for value in (2, 4, 8, 100):
            reg.histogram("lat").observe(value)
        result = histogram_percentiles("lat", registry=reg)
        assert set(result) == {0.5, 0.95, 0.99}
        assert result[0.5] <= result[0.95] <= result[0.99] <= 100.0

    def test_none_for_missing_or_wrong_kind(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        assert histogram_percentiles("c", registry=reg) is None
        assert histogram_percentiles("absent", registry=reg) is None

    def test_snapshot_preserves_percentiles(self):
        """A persisted snapshot answers the same percentile queries."""
        reg = MetricsRegistry()
        for value in (3, 7, 20, 90):
            reg.histogram("lat").observe(value)
        snap = reg.snapshot()["lat"]
        for q, key in ((0.5, "p50"), (0.95, "p95"), (0.99, "p99")):
            recomputed = percentile_from_buckets(
                snap["buckets"], snap["count"], q,
                vmin=snap["min"], vmax=snap["max"])
            assert recomputed == snap[key]


class TestOpenMetrics:
    def test_exposition_format(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("exec.tasks.completed").inc(5)
        reg.gauge("tape.length").set(12.5)
        for value in (1, 3, 3, 9):
            reg.histogram("span.ms").observe(value)
        text = openmetrics_text(reg)
        lines = text.splitlines()
        assert "# TYPE repro_exec_tasks_completed counter" in lines
        assert "repro_exec_tasks_completed_total 5" in lines
        assert "repro_tape_length 12.5" in lines
        # cumulative le buckets, then +Inf == count
        b1 = [l for l in lines if 'le="1"' in l][0]
        binf = [l for l in lines if 'le="+Inf"' in l][0]
        assert b1.endswith(" 1") and binf.endswith(" 4")
        assert "repro_span_ms_sum 16" in text
        assert "repro_span_ms_count 4" in text
        assert text.endswith("# EOF\n")

        path = write_openmetrics(str(tmp_path / "m.txt"), reg)
        with open(path) as handle:
            assert handle.read() == text

    def test_names_are_sanitized(self):
        reg = MetricsRegistry()
        reg.counter("weird-name.with spaces").inc()
        text = openmetrics_text(reg)
        assert "repro_weird_name_with_spaces_total 1" in text

    def test_bucket_counts_are_cumulative(self):
        reg = MetricsRegistry()
        for value in (1, 2, 4, 8):    # buckets 0..3, one each
            reg.histogram("h").observe(value)
        text = openmetrics_text(reg)
        counts = [int(line.rsplit(" ", 1)[1])
                  for line in text.splitlines() if "_bucket{" in line]
        assert counts == sorted(counts)    # monotone non-decreasing
        assert counts[-1] == 4             # +Inf sees everything


class TestStateIsolation:
    def test_save_restore_roundtrip(self):
        counter = obs.counter("test.isolation.counter")
        hist = obs.histogram("test.isolation.hist")
        counter.inc(3)
        hist.observe(5)
        saved = obs.save_state()
        counter.inc(10)
        hist.observe(500)
        obs.restore_state(saved)
        assert counter.value == 3
        assert hist.count == 1 and hist.max == 5.0

    def test_restore_zeroes_instruments_created_after_snapshot(self):
        saved = obs.save_state()
        late = obs.counter("test.isolation.late")
        late.inc(9)
        obs.restore_state(saved)
        assert late.value == 0

    def test_reset_zeroes_everything(self):
        counter = obs.counter("test.isolation.reset")
        counter.inc(4)
        obs.reset()
        assert counter.value == 0
        assert math.isinf(obs.histogram("test.isolation.h2").min)

    # the autouse fixture makes these two order-independent: each sees
    # a zero counter no matter which ran first (or what ran before)
    def test_fixture_isolates_first(self):
        counter = obs.counter("test.isolation.shared")
        assert counter.value == 0
        counter.inc(100)

    def test_fixture_isolates_second(self):
        counter = obs.counter("test.isolation.shared")
        assert counter.value == 0
        counter.inc(200)
