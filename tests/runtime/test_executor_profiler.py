"""Tests for the numpy executor and the TFprof-substitute profiler."""

import numpy as np
import pytest

from repro.graph import (
    Graph,
    evaluate_sizes,
    liveness_peak,
    topological_order,
)
from repro.models import build_word_lm
from repro.ops import add, matmul, relu
from repro.runtime import (
    bind_shape,
    execute_graph,
    make_feeds,
    profile_execution,
    profile_graph,
)
from repro.symbolic import symbols

b, h = symbols("b h")


def tiny_graph():
    g = Graph()
    x = g.input("x", (b, h))
    w = g.parameter("w", (h, h))
    out = relu(g, matmul(g, x, w))
    return g, x, out


class TestBindShape:
    def test_binds_symbols(self):
        g, x, _ = tiny_graph()
        assert bind_shape(x, {b: 3, h: 5}) == (3, 5)

    def test_rejects_non_integer(self):
        g, x, _ = tiny_graph()
        with pytest.raises(ValueError):
            bind_shape(x, {b: 2.5, h: 5})


class TestMakeFeeds:
    def test_float_and_int_feeds(self):
        g = Graph()
        x = g.input("x", (b, h))
        ids = g.input("ids", (b,))
        ids.int_bound = h
        feeds = make_feeds(g, {b: 4, h: 10}, seed=0)
        assert feeds["x"].shape == (4, 10)
        assert feeds["x"].dtype == np.float32
        assert feeds["ids"].dtype == np.int64
        assert feeds["ids"].max() < 10
        assert feeds["ids"].min() >= 0

    def test_deterministic_per_seed(self):
        g, *_ = tiny_graph()
        f1 = make_feeds(g, {b: 2, h: 3}, seed=7)
        f2 = make_feeds(g, {b: 2, h: 3}, seed=7)
        np.testing.assert_array_equal(f1["x"], f2["x"])


class TestExecuteGraph:
    def test_missing_feed_rejected(self):
        g, *_ = tiny_graph()
        with pytest.raises(ValueError, match="missing feed"):
            execute_graph(g, feeds={}, bindings={b: 2, h: 3})

    def test_deterministic_params(self):
        g, _, out = tiny_graph()
        r1 = execute_graph(g, bindings={b: 2, h: 3}, seed=5)
        r2 = execute_graph(g, bindings={b: 2, h: 3}, seed=5)
        np.testing.assert_array_equal(r1[out], r2[out])

    def test_result_lookup_by_tensor_or_name(self):
        g, x, out = tiny_graph()
        res = execute_graph(g, bindings={b: 2, h: 3})
        assert out in res
        np.testing.assert_array_equal(res[out], res[out.name])


class TestProfiler:
    def test_profile_totals_match_graph_aggregates(self):
        """Per-op profile sums must equal the symbolic aggregates."""
        m = build_word_lm(seq_len=4, vocab=60, layers=1)
        bindings = {m.size_symbol: 8, m.batch: 2}
        prof = profile_graph(m.graph, bindings)
        assert prof.total_flops == pytest.approx(
            m.graph.total_flops().evalf(bindings)
        )
        assert prof.total_bytes == pytest.approx(
            m.graph.total_bytes_accessed().evalf(bindings)
        )

    def test_by_kind_sorted_by_flops(self):
        m = build_word_lm(seq_len=4, vocab=60, layers=1)
        prof = profile_graph(m.graph, {m.size_symbol: 8, m.batch: 2})
        kinds = list(prof.by_kind().values())
        flops = [k.flops for k in kinds]
        assert flops == sorted(flops, reverse=True)
        # matmuls dominate an LSTM LM
        assert kinds[0].kind == "matmul"

    def test_execution_profile_has_wall_times(self):
        g, _, out = tiny_graph()
        prof = profile_execution(g, {b: 2, h: 3})
        assert all(op.wall_time >= 0 for op in prof.ops)
        assert len(prof.ops) == len(g.ops)

    def test_top_ops(self):
        g, _, out = tiny_graph()
        prof = profile_graph(g, {b: 2, h: 8})
        top = prof.top_ops(1)
        assert len(top) == 1
        assert top[0].kind == "matmul"

    def test_operational_intensity(self):
        g, _, out = tiny_graph()
        prof = profile_graph(g, {b: 2, h: 8})
        assert prof.operational_intensity == pytest.approx(
            prof.total_flops / prof.total_bytes
        )


class TestExecutionProfileJoin:
    """profile_execution must agree with the symbolic StepCounts — the
    paper's TFprof join: measured wall time and algorithmic counts on
    the same per-op record."""

    def _word_lm_profile(self):
        from repro.analysis.counters import StepCounts

        m = build_word_lm(seq_len=4, vocab=60, layers=1)
        counts = StepCounts(m)
        bindings = counts.bind(8, 2)
        return counts, bindings, profile_execution(m.graph, bindings)

    def test_totals_match_stepcounts_evalf(self):
        counts, bindings, prof = self._word_lm_profile()
        assert prof.total_flops == pytest.approx(
            counts.step_flops.evalf(bindings)
        )
        assert prof.total_bytes == pytest.approx(
            counts.step_bytes.evalf(bindings)
        )

    def test_wall_time_and_peak_live_recorded(self):
        _, _, prof = self._word_lm_profile()
        assert all(op.wall_time >= 0 for op in prof.ops)
        assert all(op.peak_live_bytes > 0 for op in prof.ops)
        # the step peak is the max over ops, and at least the largest
        # single op's high-water mark
        assert prof.peak_live_bytes == max(
            op.peak_live_bytes for op in prof.ops
        )

    def test_peak_live_never_below_persistent(self):
        """Weights/inputs are charged for the whole step, so no op can
        see less live than the persistent arrays."""
        m = build_word_lm(seq_len=4, vocab=60, layers=1)
        bindings = {m.size_symbol: 8, m.batch: 2}
        prof = profile_execution(m.graph, bindings)
        feeds = make_feeds(m.graph, bindings, seed=0)
        persistent = sum(v.nbytes for v in feeds.values())
        for t in m.graph.parameters():
            shape = bind_shape(t, bindings)
            persistent += int(np.prod(shape)) * 4  # float32
        assert all(op.peak_live_bytes >= persistent for op in prof.ops)

    def test_peak_live_bytes_follow_the_liveness_rule(self):
        """Each op's peak equals a running replay of the liveness rule.

        Every tensor is float32, so measured ``nbytes`` equal modeled
        ``size_bytes``.  ``m`` is read twice by one op and once more by
        a later op; ``side`` and ``out`` are graph outputs.
        """
        g = Graph("rule")
        x = g.input("x", (b, h))
        w = g.parameter("w", (h, h))
        m = matmul(g, x, w)
        s = add(g, m, m)
        relu(g, s)  # side: a graph output
        add(g, s, m)  # out: a graph output
        bindings = {b: 2, h: 3}
        prof = profile_execution(g, bindings)

        sizes = evaluate_sizes(g, bindings)
        order = topological_order(g)
        live = sum(sizes[t] for t in g.tensors.values()
                   if t.is_persistent or t.producer is None)
        remaining = {t: len(t.consumers) for t in g.tensors.values()}
        want = []
        for op in order:
            live += sum(sizes[t] for t in op.outputs)
            want.append(float(live))
            for t in set(op.inputs):
                if t.is_persistent or t.producer is None:
                    continue
                remaining[t] -= sum(1 for c in t.consumers if c is op)
                if remaining[t] == 0:
                    live -= sizes[t]
        assert [op.name for op in prof.ops] == [op.name for op in order]
        assert [op.peak_live_bytes for op in prof.ops] == want
        assert prof.peak_live_bytes == liveness_peak(g, order, sizes)

    def test_obs_spans_carry_the_join(self):
        """With tracing on, each op span holds flops/bytes args that
        match the OpProfile rows."""
        from repro import obs

        obs.clear()
        obs.enable()
        try:
            g, _, out = tiny_graph()
            prof = profile_execution(g, {b: 2, h: 3})
            op_spans = {s.name: s for s in obs.spans()
                        if s.category == "op"}
        finally:
            obs.disable()
            obs.clear()
        assert set(op_spans) == {op.name for op in prof.ops}
        for op in prof.ops:
            span = op_spans[op.name]
            assert span.args["flops"] == pytest.approx(op.flops)
            assert span.args["bytes"] == pytest.approx(op.bytes_accessed)
            assert span.args["peak_live_bytes"] == op.peak_live_bytes
            assert span.duration_ns >= 0
