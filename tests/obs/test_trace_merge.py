"""Cross-process trace propagation: worker spans in the merged trace.

The engine ships a trace context with every pool dispatch, workers run
a buffering tracer + delta-capturing metrics registry, and the parent
merges what comes home: these tests check the merged picture — worker
spans on their own pid tracks, nested inside the parent's dispatch
window; metric deltas folded into the parent registry; faults visible
as error-tagged spans; and structural determinism across pool widths.
"""

import json
import os

import pytest

from repro import obs
from repro.exec.engine import ExecError, ExecutionEngine, Task
from repro.obs.export import chrome_trace

from ..exec import _workers


def _spans_named(name):
    return [s for s in obs.spans() if s.name == name]


def _run_traced(tasks, **kwargs):
    obs.clear()
    obs.enable()
    try:
        results = ExecutionEngine(**kwargs).run(tasks)
    finally:
        obs.disable()
    return results, obs.spans()


class TestPoolMerge:
    def test_worker_spans_land_on_worker_pids(self):
        tasks = [Task(id=f"t{i}", fn=_workers.traced_payload,
                      args=(i,)) for i in range(4)]
        results, _ = _run_traced(tasks, max_workers=2)
        assert all(results[t.id].value == i * 2
                   for i, t in enumerate(tasks))

        worker_spans = _spans_named("exec.worker_task")
        assert len(worker_spans) == 4
        parent_pid = os.getpid()
        assert all(s.pid != parent_pid for s in worker_spans)
        # the payload's own span comes home too, as a child
        bodies = _spans_named("test.worker_body")
        assert len(bodies) == 4
        for body in bodies:
            assert body.parent is not None
            assert body.parent.name == "exec.worker_task"
            assert body.pid == body.parent.pid

    def test_worker_windows_nest_inside_parent_dispatch(self):
        """Per-task wall times reconcile: each worker span fits inside
        the parent-side exec.task span for the same task."""
        tasks = [Task(id=f"t{i}", fn=_workers.traced_payload,
                      args=(i,)) for i in range(3)]
        _run_traced(tasks, max_workers=2)
        dispatch = {s.args["task"]: s for s in _spans_named("exec.task")
                    if s.args.get("outcome") == "ok"}
        assert len(dispatch) == 3
        for worker_span in _spans_named("exec.worker_task"):
            parent_span = dispatch[worker_span.args["task"]]
            assert worker_span.start_ns >= parent_span.start_ns
            assert worker_span.end_ns <= parent_span.end_ns

    def test_worker_metrics_merge_into_parent_registry(self):
        baseline = obs.REGISTRY.state()
        tasks = [Task(id=f"t{i}", fn=_workers.traced_payload,
                      args=(i,)) for i in range(4)]
        _run_traced(tasks, max_workers=2)
        delta = obs.REGISTRY.delta_since(baseline)
        assert delta["test.worker.calls"]["inc"] == 4
        assert delta["test.worker.value"]["count"] == 4
        # histogram content came along, not just the count
        assert delta["test.worker.value"]["total"] == float(0 + 1 + 2 + 3)

    def test_flow_events_pair_dispatch_with_worker(self):
        tasks = [Task(id=f"t{i}", fn=_workers.traced_payload,
                      args=(i,)) for i in range(2)]
        _, span_list = _run_traced(tasks, max_workers=2)
        payload = chrome_trace(span_list, obs.REGISTRY)
        flows = [e for e in payload["traceEvents"]
                 if e["ph"] in ("s", "f")]
        starts = {e["id"] for e in flows if e["ph"] == "s"}
        finishes = {e["id"] for e in flows if e["ph"] == "f"}
        assert len(starts) == 2
        assert starts == finishes      # every arrow lands
        assert all(e.get("bp") == "e" for e in flows
                   if e["ph"] == "f")
        # the merged trace has at least two process tracks
        pids = {e["pid"] for e in payload["traceEvents"]
                if e["ph"] == "X"}
        assert len(pids) >= 2


def _failed_traced(tasks, **kwargs):
    """Run a traced batch that must fail; returns its result map."""
    with pytest.raises(ExecError) as excinfo:
        _run_traced(tasks, **kwargs)
    return excinfo.value.results


def _task_spans(task_id):
    return [s for s in _spans_named("exec.task")
            if s.args.get("task") == task_id]


class TestFaultVisibility:
    """Each fault is one error-tagged span: a task runs once, so there
    is no retried attempt and no serial rerun to show."""

    def test_failed_task_is_one_error_tagged_span(self):
        tasks = [Task(id="bad", fn=_workers.raise_in_worker,
                      args=(21,))]
        results = _failed_traced(tasks, max_workers=2)
        assert results["bad"].source == "pool"

        # the worker's span came home with the error on it
        worker_spans = _spans_named("exec.worker_task")
        assert len(worker_spans) == 1
        assert worker_spans[0].error == "RuntimeError"
        # the parent tagged the collected failure, and nothing reran it
        spans = _task_spans("bad")
        assert [s.args["outcome"] for s in spans] == ["worker_error"]
        assert spans[0].error == "RuntimeError"

    def test_timeout_is_a_tagged_span(self):
        tasks = [Task(id="hang", fn=_workers.hang_in_worker,
                      args=(5, 30.0))]
        results = _failed_traced(tasks, max_workers=2, timeout=0.3)
        assert isinstance(results["hang"].error, TimeoutError)
        spans = _task_spans("hang")
        assert [s.args["outcome"] for s in spans] == ["timeout"]
        assert spans[0].error == "TimeoutError"

    def test_corrupt_payload_is_a_tagged_span(self):
        tasks = [Task(id="c", fn=_workers.corrupt_in_worker, args=(5,),
                      validate=_workers.payload_ok)]
        _failed_traced(tasks, max_workers=2)
        spans = _task_spans("c")
        assert [s.args["outcome"] for s in spans] == ["worker_error"]
        assert spans[0].error == "ValueError"  # validator rejection


def _structure(span_list):
    """Pid-free structural signature of a merged trace: every span as
    (name, parent name, outcome, error), canonically sorted."""
    sig = []
    for s in span_list:
        sig.append((
            s.name,
            s.parent.name if s.parent is not None else None,
            str(s.args.get("task", "")),
            str(s.args.get("outcome", "")),
            s.error or "",
        ))
    return sorted(sig)


class TestDeterminism:
    def test_same_structure_across_pool_widths(self):
        """2-worker and 4-worker merged traces are structurally
        identical for well-behaved tasks — only timings and pids may
        differ."""
        def batch():
            return [Task(id=f"t{i}", fn=_workers.traced_payload,
                         args=(i,)) for i in range(6)]

        _, spans2 = _run_traced(batch(), max_workers=2)
        _, spans4 = _run_traced(batch(), max_workers=4)
        assert _structure(spans2) == _structure(spans4)

    def test_chrome_trace_event_set_is_stable(self):
        """Exporter ordering is deterministic: two exports of the same
        span list serialize identically."""
        tasks = [Task(id=f"t{i}", fn=_workers.traced_payload,
                      args=(i,)) for i in range(3)]
        _, span_list = _run_traced(tasks, max_workers=2)
        a = json.dumps(chrome_trace(span_list, obs.REGISTRY),
                       sort_keys=True)
        b = json.dumps(chrome_trace(span_list, obs.REGISTRY),
                       sort_keys=True)
        assert a == b
