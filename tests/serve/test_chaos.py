"""The chaos harness: plan validation and deterministic fault runs.

The in-process tests drive a monkeypatched endpoint through a seeded
plan and assert the resilience invariants the harness exists for:
every response is structured (no unstructured 500s, no tracebacks),
injected compute failures surface as E-EXEC 503, store corruption is
detected and healed (never served), and every fault lands at exactly
the planned request index.  A ``server``-marked test then
runs the real daemon under ``--chaos-plan`` end to end.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.errors import BindingError
from repro.exec.store import ResultStore
from repro.serve import ENDPOINTS, ChaosController, ChaosPlan, \
    Endpoint, running_server

from ..helpers import ServerFixture, http_post


# -- plan validation ---------------------------------------------------------

class TestPlanValidation:
    def test_minimal_plan(self):
        plan = ChaosPlan({"seed": 7, "faults": []})
        assert plan.seed == 7 and plan.faults == []

    def test_unknown_op_rejected(self):
        with pytest.raises(BindingError) as excinfo:
            ChaosPlan({"faults": [{"op": "set_on_fire"}]})
        assert "unknown op" in excinfo.value.message

    @pytest.mark.parametrize("op", ["open_breaker", "close_breaker"])
    def test_breaker_ops_are_unknown(self, op):
        with pytest.raises(BindingError) as excinfo:
            ChaosPlan({"faults": [{"op": op, "at_request": 1}]})
        assert "unknown op" in excinfo.value.message

    def test_unknown_fault_field_rejected(self):
        with pytest.raises(BindingError) as excinfo:
            ChaosPlan({"faults": [{"op": "latency", "msec": 5}]})
        assert "unknown field" in excinfo.value.message

    def test_unknown_plan_field_rejected(self):
        with pytest.raises(BindingError):
            ChaosPlan({"seeds": 1, "faults": []})

    def test_zero_index_rejected(self):
        with pytest.raises(BindingError) as excinfo:
            ChaosPlan({"faults": [{"op": "error", "at_request": 0}]})
        assert "1-based" in excinfo.value.message

    def test_faults_must_be_a_list(self):
        with pytest.raises(BindingError):
            ChaosPlan({"faults": {"op": "error"}})

    def test_invalid_json_rejected(self):
        with pytest.raises(BindingError) as excinfo:
            ChaosPlan.from_json("{nope")
        assert "not valid JSON" in excinfo.value.message

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(BindingError) as excinfo:
            ChaosPlan.from_file(str(tmp_path / "absent.json"))
        assert "cannot read" in excinfo.value.message

    def test_range_matching(self):
        plan = ChaosPlan({"faults": [
            {"op": "latency", "from_request": 2, "to_request": 4},
            {"op": "error", "endpoint": "sweep", "at_request": 3},
        ]})
        window, pointed = plan.faults
        assert [window.matches("any", i) for i in (1, 2, 4, 5)] \
            == [False, True, True, False]
        assert pointed.matches("sweep", 3)
        assert not pointed.matches("plan", 3)


# -- deterministic in-process runs -------------------------------------------

def _echo_endpoint() -> Endpoint:
    def normalize(params):
        if not isinstance(params, dict) or "tag" not in params:
            raise BindingError("missing required field 'tag'")
        return {"tag": str(params["tag"])}

    def compute(params):
        return {"tag": params["tag"]}

    return Endpoint("chaostest", normalize, compute)


def _counter(name: str) -> float:
    return obs.snapshot().get(name, {}).get("value", 0)


def test_error_fault_is_structured_503_at_exact_index(monkeypatch):
    monkeypatch.setitem(ENDPOINTS, "chaostest", _echo_endpoint())
    chaos = ChaosController(ChaosPlan({"seed": 1, "faults": [
        {"op": "error", "at_request": 2},
    ]}))
    with running_server(store=None, chaos=chaos) as server:
        statuses = []
        for i in range(3):
            status, body = http_post(server.url + "/v1/chaostest",
                                     {"tag": f"t{i}"})
            statuses.append(status)
            assert set(body) in ({"error"}, {"endpoint", "key",
                                             "params", "result"})
            if status != 200:
                assert body["error"]["code"] == "E-EXEC"
                assert "chaos" in body["error"]["message"]
        assert statuses == [200, 503, 200]
        assert server.health_payload()["chaos"]["requests_seen"] == 3


def test_latency_fault_injects_and_completes(monkeypatch):
    monkeypatch.setitem(ENDPOINTS, "chaostest", _echo_endpoint())
    chaos = ChaosController(ChaosPlan({"seed": 3, "faults": [
        {"op": "latency", "at_request": 1, "ms": 20, "jitter_ms": 10},
    ]}))
    injected_before = _counter("serve.chaos.injected")
    with running_server(store=None, chaos=chaos) as server:
        status, _ = http_post(server.url + "/v1/chaostest",
                              {"tag": "slow"})
        assert status == 200
    assert _counter("serve.chaos.injected") == injected_before + 1


def test_corrupt_store_is_detected_and_healed(monkeypatch, tmp_path):
    monkeypatch.setitem(ENDPOINTS, "chaostest", _echo_endpoint())
    chaos = ChaosController(ChaosPlan({"seed": 5, "faults": [
        {"op": "corrupt_store", "at_request": 2},
    ]}))
    store = ResultStore(str(tmp_path / "store"))
    dropped_before = _counter("serve.store.corrupt_dropped")
    with running_server(store=store, chaos=chaos) as server:
        status, first = http_post(server.url + "/v1/chaostest",
                                  {"tag": "x"})
        assert status == 200
        # request 2 garbles the stored envelope through the real
        # store; the integrity guard must drop it and recompute —
        # corruption is never served as a 200 payload
        status, healed = http_post(server.url + "/v1/chaostest",
                                   {"tag": "x"})
        assert status == 200
        assert healed == first
        # and the store now holds the recomputed canonical bytes
        status, third = http_post(server.url + "/v1/chaostest",
                                  {"tag": "x"})
        assert status == 200
        assert third == first
    assert _counter("serve.store.corrupt_dropped") \
        == dropped_before + 1


def test_mixed_plan_yields_only_structured_statuses(monkeypatch,
                                                    tmp_path):
    """The headline invariant, in miniature: a run under a mixed
    fault plan produces only structured, known statuses."""
    monkeypatch.setitem(ENDPOINTS, "chaostest", _echo_endpoint())
    chaos = ChaosController(ChaosPlan({"seed": 11, "faults": [
        {"op": "latency", "from_request": 1, "to_request": 8,
         "ms": 2, "jitter_ms": 3},
        {"op": "error", "at_request": 3},
        {"op": "corrupt_store", "at_request": 5},
    ]}))
    store = ResultStore(str(tmp_path / "store"))
    with running_server(store=store, chaos=chaos) as server:
        for i in range(10):
            status, body = http_post(
                server.url + "/v1/chaostest",
                {"tag": f"t{i % 4}"})
            assert status in (200, 503), (i, status, body)
            if status != 200:
                assert body["error"]["code"] == "E-EXEC"
                assert "Traceback" not in json.dumps(body)


# -- the real daemon under --chaos-plan --------------------------------------

@pytest.mark.server
def test_daemon_runs_a_chaos_plan_and_drains_clean(tmp_path):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({"seed": 7, "faults": [
        {"op": "latency", "from_request": 1, "to_request": 6,
         "ms": 5, "jitter_ms": 5},
        {"op": "error", "at_request": 2},
    ]}))
    with ServerFixture(no_cache=True,
                       extra_args=["--chaos-plan", str(plan_path)],
                       ) as server:
        statuses = []
        for i in range(4):
            status, body = server.post(
                "/v1/exhibit", {"name": "table2" if i % 2 else
                                "table4"})
            statuses.append(status)
            if status != 200:
                assert body["error"]["code"] == "E-EXEC", body
        assert statuses.count(200) == 3
        assert statuses.count(503) == 1
        status, health = server.get("/healthz")
        assert status == 200
        assert health["chaos"]["faults"] == 2
        assert health["chaos"]["requests_seen"] >= 4
        exit_code = server.terminate()
    assert exit_code == 0

    # a bad plan must fail startup with a rendered E-BIND, exit 1
    bad = tmp_path / "bad.json"
    bad.write_text('{"faults": [{"op": "nope"}]}')
    with pytest.raises(RuntimeError) as excinfo:
        ServerFixture(no_cache=True,
                      extra_args=["--chaos-plan", str(bad)],
                      startup_timeout=30.0)
    assert "E-BIND" in str(excinfo.value)


@pytest.mark.server
def test_listener_survives_chaos_worker_kill(tmp_path):
    """``kill_worker`` against ``--compute-workers``: the crash is a
    structured 503, the HTTP listener never dies, and the supervised
    pool recovers to serve the next cold compute."""
    import time

    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({"seed": 13, "faults": [
        {"op": "kill_worker", "at_request": 2},
    ]}))
    with ServerFixture(no_cache=True,
                       extra_args=["--chaos-plan", str(plan_path),
                                   "--compute-workers", "1"],
                       ) as server:
        status, health = server.get("/healthz")
        assert health["compute_workers"] == 1
        status, _ = server.post("/v1/exhibit", {"name": "table2"})
        assert status == 200
        # request 2: the worker is SIGKILLed at the compute boundary
        status, body = server.post("/v1/exhibit", {"name": "table4"})
        assert status == 503, body
        assert body["error"]["code"] == "E-EXEC"
        # the listener is alive and the pool restarts behind its
        # backoff; retry until the replacement worker answers
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            status, body = server.post("/v1/exhibit",
                                       {"name": "table4"})
            if status == 200:
                break
            assert status == 503, body
            time.sleep(0.1)
        assert status == 200
        exit_code = server.terminate()
    assert exit_code == 0
