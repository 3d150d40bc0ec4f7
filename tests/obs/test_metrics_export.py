"""Metrics registry semantics and exporter format validity."""

import json
import math

import pytest

from repro import obs
from repro.obs.export import chrome_trace, write_chrome_trace
from repro.obs.metrics import (
    _N_BUCKETS,
    _bucket_index,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.tracer import Tracer


class TestCounter:
    def test_inc(self):
        c = Counter("c")
        assert c.value == 0
        c.inc()
        c.inc(5)
        assert c.value == 6


class TestGauge:
    def test_set_tracks_updates(self):
        g = Gauge("g")
        assert g.value == 0.0 and g.updates == 0
        g.set(3)
        g.set(1.5)
        assert g.value == 1.5 and g.updates == 2


class TestHistogramBuckets:
    @pytest.mark.parametrize("value,bucket", [
        (0.0, 0), (0.5, 0), (1.0, 0),      # <=1 collapses to bucket 0
        (1.5, 1), (2.0, 1),                # (1, 2]
        (2.5, 2), (4.0, 2),                # (2, 4]
        (5.0, 3), (8.0, 3),                # (4, 8]
        (2.0 ** 40, 40),
        (2.0 ** 200, _N_BUCKETS - 1),      # clamps at the top bucket
    ])
    def test_log2_bucket_edges(self, value, bucket):
        assert _bucket_index(value) == bucket

    def test_observe_stats(self):
        h = Histogram("h")
        for v in (1, 2, 3, 10):
            h.observe(v)
        assert h.count == 4
        assert h.total == 16.0
        assert h.mean == 4.0
        assert h.min == 1.0 and h.max == 10.0

    def test_quantile_within_bucket_factor(self):
        h = Histogram("h")
        for v in range(1, 101):
            h.observe(v)
        # log2 buckets keep each estimate within 2x, clamped to the
        # observed extrema
        assert 25 <= h.percentile(0.5) <= 100
        assert h.percentile(1.0) == 100.0
        assert h.percentile(0.0) == 1.0

    def test_quantile_validates_range(self):
        h = Histogram("h")
        with pytest.raises(ValueError):
            h.percentile(1.5)

    def test_empty_histogram(self):
        h = Histogram("h")
        assert h.mean == 0.0
        assert h.percentile(0.5) == 0.0


class TestRegistry:
    def test_create_or_fetch_same_instance(self):
        reg = MetricsRegistry()
        assert reg.counter("a.b") is reg.counter("a.b")
        assert reg.get("a.b") is reg.counter("a.b")
        assert reg.get("missing") is None

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError, match="already registered"):
            reg.gauge("x")

    def test_clear_zeroes_in_place(self):
        """Module-level counter references must survive a clear()."""
        reg = MetricsRegistry()
        c = reg.counter("c")
        g = reg.gauge("g")
        h = reg.histogram("h")
        c.inc(3)
        g.set(7)
        h.observe(42)
        reg.clear()
        assert c is reg.counter("c") and c.value == 0
        assert g.value == 0.0 and g.updates == 0
        assert h.count == 0 and h.total == 0.0
        assert h.min == math.inf and all(b == 0 for b in h.buckets)

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.gauge("g").set(1.5)
        reg.histogram("h").observe(8)
        snap = reg.snapshot()
        assert snap["c"] == {"type": "counter", "value": 2}
        assert snap["g"] == {"type": "gauge", "value": 1.5, "updates": 1}
        assert snap["h"]["type"] == "histogram"
        assert snap["h"]["count"] == 1 and snap["h"]["mean"] == 8.0
        json.dumps(snap)  # must be JSON-clean


def _record_sample(tracer):
    with tracer.span("outer", "test", domain="word_lm"):
        with tracer.span("inner", "test") as inner:
            inner.set(size=512)
        try:
            with tracer.span("failing", "test"):
                raise ValueError("x")
        except ValueError:
            pass
    return tracer.spans()


class TestChromeTrace:
    """Golden-structure validation of the trace_events JSON."""

    def test_trace_object_format(self, tmp_path):
        tracer = Tracer()
        tracer.enable()
        span_list = _record_sample(tracer)
        reg = MetricsRegistry()
        reg.counter("test.hits").inc(3)

        path = write_chrome_trace(str(tmp_path / "t.json"),
                                  span_list, reg)
        with open(path) as handle:
            payload = json.load(handle)

        # the object format chrome://tracing and Perfetto both accept
        assert isinstance(payload["traceEvents"], list)
        assert payload["displayTimeUnit"] == "ms"
        events = payload["traceEvents"]
        phases = {e["ph"] for e in events}
        assert phases == {"M", "X", "C"}
        for e in events:
            assert {"ph", "pid", "tid", "name"} <= set(e)
            if e["ph"] in ("X", "C"):
                assert isinstance(e["ts"], (int, float))
                assert e["ts"] >= 0
            if e["ph"] == "X":
                assert e["dur"] >= 0

    def test_span_events_content(self):
        tracer = Tracer()
        tracer.enable()
        span_list = _record_sample(tracer)
        payload = chrome_trace(span_list, MetricsRegistry())
        xs = {e["name"]: e
              for e in payload["traceEvents"] if e["ph"] == "X"}
        assert set(xs) == {"outer", "inner", "failing"}
        assert xs["outer"]["cat"] == "test"
        assert xs["outer"]["args"]["domain"] == "word_lm"
        assert xs["inner"]["args"]["size"] == 512
        assert xs["failing"]["args"]["error"] == "ValueError"
        # timestamps are relative to the earliest span: outer is 0
        assert xs["outer"]["ts"] == 0.0
        assert xs["inner"]["ts"] >= 0.0
        # children nest inside the parent's [ts, ts+dur] window
        outer_end = xs["outer"]["ts"] + xs["outer"]["dur"]
        for child in ("inner", "failing"):
            assert xs[child]["ts"] >= xs["outer"]["ts"]
            assert xs[child]["ts"] + xs[child]["dur"] <= outer_end

    def test_metadata_and_counter_events(self):
        tracer = Tracer()
        tracer.enable()
        span_list = _record_sample(tracer)
        reg = MetricsRegistry()
        reg.counter("test.hits").inc(3)
        reg.gauge("test.gauge").set(1)  # gauges are not counter tracks
        payload = chrome_trace(span_list, reg)
        metas = [e for e in payload["traceEvents"] if e["ph"] == "M"]
        assert any(e["name"] == "process_name" for e in metas)
        assert any(e["name"] == "thread_name" for e in metas)
        counters = [e for e in payload["traceEvents"] if e["ph"] == "C"]
        assert [c["name"] for c in counters] == ["test.hits"]
        assert counters[0]["args"] == {"value": 3}
        assert payload["metrics"]["test.hits"]["value"] == 3

    def test_empty_trace_is_still_valid(self):
        payload = chrome_trace([], MetricsRegistry())
        json.dumps(payload)
        # metadata only (process name + sort index), nothing timed
        assert payload["traceEvents"]
        assert all(e["ph"] == "M" for e in payload["traceEvents"])


class TestSummaryTables:
    def test_span_summary_aggregates(self):
        tracer = Tracer()
        tracer.enable()
        _record_sample(tracer)
        with tracer.span("inner", "test"):
            pass
        table = obs.span_summary_table(tracer.spans())
        rows = {r[1]: r for r in table.rows}
        assert rows["inner"][2] == "2"       # count aggregated
        assert rows["failing"][6] == "1"     # error column
        assert rows["outer"][6] == ""
        table.render()
        table.to_csv()

    def test_metrics_summary_lists_all_kinds(self):
        reg = MetricsRegistry()
        reg.counter("a.count").inc(1000)
        reg.gauge("b.gauge").set(2)
        reg.histogram("c.hist").observe(5)
        reg.histogram("d.empty")
        table = obs.metrics_summary_table(reg)
        names = [r[0] for r in table.rows]
        assert names == ["a.count", "b.gauge", "c.hist", "d.empty"]
        rendered = table.render()
        assert "counter" in rendered and "histogram" in rendered

    def test_module_summary_runs(self):
        # global summary must render whatever the pipeline registered
        text = obs.summary()
        assert "Metrics summary" in text
