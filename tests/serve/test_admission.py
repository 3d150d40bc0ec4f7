"""Admission control: the compute gate sheds, warm hits never queue,
deadlines surface as 429/504.

Synchronization is event-based throughout: the gated endpoint signals
when its compute has *entered* (so the gate's slot is provably held),
and the test releases it explicitly — no sleeps standing in for
ordering.
"""

from __future__ import annotations

import json
import sys
import threading
import time

import pytest

from repro import obs
from repro.deadline import Deadline
from repro.errors import BindingError, BusyError, DeadlineError
from repro.exec.store import ResultStore
from repro.serve import ENDPOINTS, AnalysisService, Endpoint, \
    ServeConfig, running_server
from repro.serve.admission import AdmissionController, Bulkhead

from ..helpers import http_get, http_post


# -- unit: Bulkhead ----------------------------------------------------------

class TestBulkhead:
    def test_admits_up_to_width(self):
        head = Bulkhead(width=2, queue_depth=0, queue_timeout=30)
        with head.admit():
            with head.admit():
                with pytest.raises(BusyError) as excinfo:
                    with head.admit():
                        pass
        assert excinfo.value.code == "E-BUSY"
        assert excinfo.value.retry_after > 0

    def test_queue_timeout_sheds(self):
        head = Bulkhead(width=1, queue_depth=4,
                        queue_timeout=0.05)
        with head.admit():
            with pytest.raises(BusyError) as excinfo:
                with head.admit():
                    pass
        assert "queue timeout" in excinfo.value.message

    def test_deadline_ending_the_wait_is_e_deadline(self):
        head = Bulkhead(width=1, queue_depth=4, queue_timeout=30.0)
        with head.admit():
            with pytest.raises(DeadlineError) as excinfo:
                with head.admit(Deadline(50.0)):
                    pass
        assert excinfo.value.progress == {"stage": "admission-queue"}

    def test_queue_timeout_before_the_deadline_stays_e_busy(self):
        head = Bulkhead(width=1, queue_depth=4, queue_timeout=0.05)
        with head.admit():
            with pytest.raises(BusyError):
                with head.admit(Deadline(30000.0)):
                    pass

    def test_queued_request_proceeds_after_release(self):
        head = Bulkhead(width=1, queue_depth=4,
                        queue_timeout=30.0)
        entered = threading.Event()
        release = threading.Event()
        outcome = {}

        def holder():
            with head.admit():
                entered.set()
                assert release.wait(timeout=30)

        def waiter():
            assert entered.wait(timeout=30)
            with head.admit():
                outcome["admitted"] = True

        threads = [threading.Thread(target=holder),
                   threading.Thread(target=waiter)]
        for t in threads:
            t.start()
        assert entered.wait(timeout=30)
        release.set()
        for t in threads:
            t.join(timeout=30)
        assert outcome.get("admitted") is True

    def test_slot_released_after_body_raises(self):
        head = Bulkhead(width=1, queue_depth=0,
                        queue_timeout=30.0)
        with pytest.raises(RuntimeError):
            with head.admit():
                raise RuntimeError("compute blew up")
        with head.admit():  # slot must be free again
            pass

    def test_never_exceeds_width_under_contention(self):
        head = Bulkhead(width=2, queue_depth=64, queue_timeout=30.0)
        lock = threading.Lock()
        running, peak, done = [0], [0], []

        def worker():
            for _ in range(50):
                with head.admit():
                    with lock:
                        running[0] += 1
                        peak[0] = max(peak[0], running[0])
                    time.sleep(0)
                    with lock:
                        running[0] -= 1
            done.append(True)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker)
                       for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(done) == 8
        assert peak[0] == 2
        assert head.snapshot() == {"width": 2, "queue_depth": 64,
                                   "waiting": 0}


def test_gate_width_follows_compute_workers():
    assert AdmissionController().gate.width == 1
    assert AdmissionController(
        ServeConfig(compute_workers=3)).gate.width == 3


# -- service/server level ----------------------------------------------------

def _gated_endpoint(entered: threading.Event,
                    release: threading.Event) -> Endpoint:
    def normalize(params):
        if not isinstance(params, dict) or "tag" not in params:
            raise BindingError("missing required field 'tag'")
        return {"tag": str(params["tag"])}

    def compute(params):
        entered.set()
        assert release.wait(timeout=60), "test gate never released"
        return {"tag": params["tag"]}

    return Endpoint("gated", normalize, compute)


def _counter(name: str) -> float:
    return obs.snapshot().get(name, {}).get("value", 0)


def test_saturated_bulkhead_sheds_429_with_retry_after(monkeypatch):
    entered, release = threading.Event(), threading.Event()
    monkeypatch.setitem(ENDPOINTS, "gated",
                        _gated_endpoint(entered, release))
    # in-process, the gate is one compute wide
    config = ServeConfig(queue_depth=0)
    shed_before = _counter("serve.admission.shed")
    with running_server(store=None, config=config) as server:
        leader_result = {}

        def leader():
            leader_result["response"] = http_post(
                server.url + "/v1/gated", {"tag": "hold"})

        thread = threading.Thread(target=leader)
        thread.start()
        assert entered.wait(timeout=60), "leader never computed"
        # distinct tag => distinct key => no coalescing: this request
        # needs its own slot and the gate has none to give
        import urllib.error
        import urllib.request
        request = urllib.request.Request(
            server.url + "/v1/gated",
            data=json.dumps({"tag": "shed-me"}).encode(),
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 429
        assert int(excinfo.value.headers["Retry-After"]) >= 1
        payload = json.loads(excinfo.value.read())
        assert payload["error"]["code"] == "E-BUSY"
        release.set()
        thread.join(timeout=60)
        assert leader_result["response"][0] == 200
    assert _counter("serve.admission.shed") > shed_before


def test_warm_hits_served_while_cold_compute_blocked(
        monkeypatch, tmp_path):
    """The tentpole invariant: a store hit must never queue behind a
    cold compute — even in-process, where the compute gate has width
    1 and is *held* by the blocked leader."""
    entered, release = threading.Event(), threading.Event()
    monkeypatch.setitem(ENDPOINTS, "gated",
                        _gated_endpoint(entered, release))
    store = ResultStore(str(tmp_path / "store"))
    with running_server(store=store) as server:
        # warm the store with a real (cheap) query
        status, first = http_post(server.url + "/v1/exhibit",
                                  {"name": "table2"})
        assert status == 200
        # occupy the cold path: the gate's one slot held
        thread = threading.Thread(
            target=http_post,
            args=(server.url + "/v1/gated", {"tag": "block"}))
        thread.start()
        assert entered.wait(timeout=60)
        hits_before = _counter("exec.store.hit")
        status, again = http_post(server.url + "/v1/exhibit",
                                  {"name": "table2"}, timeout=30)
        assert status == 200
        assert again == first
        assert _counter("exec.store.hit") > hits_before
        release.set()
        thread.join(timeout=60)


@pytest.mark.parametrize("second", ["gated", "echo"])
def test_deadline_bounds_the_wait_for_the_compute_gate(monkeypatch,
                                                       second):
    """A request queued behind a held compute, from the same endpoint
    or another, is answered within its deadline, not when the held
    compute ends: an E-DEADLINE 504 counted as a missed deadline (not
    an E-BUSY shed), with the wait counted as queued."""
    entered, release = threading.Event(), threading.Event()
    monkeypatch.setitem(ENDPOINTS, "gated",
                        _gated_endpoint(entered, release))
    free = threading.Event()
    free.set()
    monkeypatch.setitem(ENDPOINTS, "echo", _gated_endpoint(
        threading.Event(), free))
    with running_server(store=None) as server:
        thread = threading.Thread(
            target=http_post,
            args=(server.url + "/v1/gated", {"tag": "hold"}))
        thread.start()
        assert entered.wait(timeout=60)
        # a gate that ignored the deadline would answer when this
        # fires, so the elapsed-time bound below separates the two
        timer = threading.Timer(2.0, release.set)
        timer.start()
        try:
            queued_before = _counter("serve.admission.queued")
            exceeded_before = _counter("serve.deadline.exceeded")
            shed_before = _counter("serve.admission.shed")
            t0 = time.monotonic()
            status, body = http_post(
                server.url + f"/v1/{second}?deadline_ms=100",
                {"tag": "late"}, timeout=30)
            elapsed = time.monotonic() - t0
        finally:
            timer.cancel()
            release.set()
            thread.join(timeout=60)
        assert status == 504, body
        assert body["error"]["code"] == "E-DEADLINE"
        assert {"stage": "admission-queue"} in body["error"]["context"]
        assert elapsed < 0.6, f"answered after {elapsed:.3f} s"
        assert _counter("serve.admission.queued") > queued_before
        assert _counter("serve.deadline.exceeded") == exceeded_before + 1
        assert _counter("serve.admission.shed") == shed_before


def test_standalone_service_serializes_cold_computes(monkeypatch):
    lock = threading.Lock()
    running, peak = [0], [0]

    def normalize(params):
        return {"tag": str(params["tag"])}

    def compute(params):
        with lock:
            running[0] += 1
            peak[0] = max(peak[0], running[0])
        time.sleep(0.2)
        with lock:
            running[0] -= 1
        return {"tag": params["tag"]}

    monkeypatch.setitem(ENDPOINTS, "tracked",
                        Endpoint("tracked", normalize, compute))
    service = AnalysisService(store=None)
    results = {}

    def worker(tag):
        results[tag] = service.query("tracked", {"tag": tag})

    threads = [threading.Thread(target=worker, args=(tag,))
               for tag in ("a", "b")]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert sorted(results) == ["a", "b"]
    assert peak[0] == 1


def test_healthz_reports_the_single_compute_gate():
    with running_server(store=None) as server:
        status, health = http_get(server.url + "/healthz")
    assert status == 200
    assert health["admission"] == {"width": 1, "queue_depth": 8,
                                   "waiting": 0}


def test_deadline_via_query_param_is_504_with_progress():
    with running_server(store=None) as server:
        status, body = http_post(
            server.url + "/v1/sweep?deadline_ms=0.001",
            {"domain": "word_lm"})
        assert status == 504
        assert body["error"]["code"] == "E-DEADLINE"
        stages = [frame.get("stage")
                  for frame in body["error"].get("context", [])
                  if isinstance(frame, dict)]
        assert stages, body


def test_deadline_via_header_is_504():
    import urllib.error
    import urllib.request
    with running_server(store=None) as server:
        request = urllib.request.Request(
            server.url + "/v1/sweep",
            data=json.dumps({"domain": "word_lm"}).encode(),
            headers={"Content-Type": "application/json",
                     "X-Repro-Deadline-Ms": "0.001"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 504
        payload = json.loads(excinfo.value.read())
        assert payload["error"]["code"] == "E-DEADLINE"


def test_invalid_deadline_is_structured_400():
    with running_server(store=None) as server:
        status, body = http_post(
            server.url + "/v1/sweep?deadline_ms=banana",
            {"domain": "word_lm"})
        assert status == 400
        assert body["error"]["code"] == "E-BIND"
        assert "deadline_ms" in body["error"]["message"]


def test_deadline_outcome_counters(monkeypatch):
    met_before = _counter("serve.deadline.met")
    exceeded_before = _counter("serve.deadline.exceeded")
    with running_server(store=None) as server:
        status, _ = http_post(
            server.url + "/v1/exhibit?deadline_ms=600000",
            {"name": "table2"})
        assert status == 200
        status, _ = http_post(
            server.url + "/v1/sweep?deadline_ms=0.001",
            {"domain": "word_lm"})
        assert status == 504
    assert _counter("serve.deadline.met") > met_before
    assert _counter("serve.deadline.exceeded") > exceeded_before
