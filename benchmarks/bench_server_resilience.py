"""Overload-resilience benchmark: warm-hit isolation under cold load.

The compute gate's contract is that warm store hits never queue
behind cold computes.  This bench measures it: warm ``table1`` p50
latency uncontended, then again while four client threads hammer the
server with unique cold sweeps that saturate the gate (two computes
wide, as the two-process supervised pool they run on; one queue
slot, 50 ms queue timeout — most of the burst sheds E-BUSY), so the
listener threads only ever do store reads for the warm client.

Records ``BENCH_server_resilience.json``:

* ``warm_hit_p50_headroom`` — ``2 * uncontended_p50 / contended_p50``;
  the acceptance bound "contended warm p50 within 2x uncontended" is
  exactly ``headroom >= 1.0``, the committed floor;
* ``structured_rate`` — fraction of overload responses that were
  structured (200 or E-BUSY 429; floor 1.0 — nothing unstructured);
* ``shed_count`` / ``queued_count`` — admission outcomes (floors
  prove the overload actually overloaded);
* ``goodput_qps`` — completed cold sweeps per second under overload.

``benchmarks/check_bench_floors.py --section server_resilience``
gates the recorded numbers.

Run:  PYTHONPATH=src python -m pytest \\
          benchmarks/bench_server_resilience.py -s -q
"""

from __future__ import annotations

import http.client
import json
import os
import sys
import tempfile
import threading
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

# the warm-latency sampler shares this process's GIL with the load
# threads; the default 5 ms switch interval would bill their handoff
# latency to the server
sys.setswitchinterval(0.001)

from repro.exec.store import ResultStore  # noqa: E402
from repro.serve.server import ReproServer, ServeConfig  # noqa: E402

WARM_SAMPLES = int(os.environ.get("BENCH_RESILIENCE_SAMPLES", "300"))
LOAD_THREADS = 4
LOAD_SECONDS = float(os.environ.get("BENCH_RESILIENCE_SECONDS", "4.0"))
HEADROOM_FLOOR = 1.0


class _Client:
    """One keep-alive connection; returns (status, body) raw."""

    def __init__(self, host: str, port: int):
        self.conn = http.client.HTTPConnection(host, port, timeout=120)

    def post(self, path: str, payload: dict):
        body = json.dumps(payload).encode("utf-8")
        self.conn.request("POST", path, body,
                          {"Content-Type": "application/json"})
        response = self.conn.getresponse()
        self.retry_after = float(
            response.getheader("Retry-After") or 0.0)
        return response.status, response.read()

    def get_json(self, path: str) -> dict:
        self.conn.request("GET", path)
        response = self.conn.getresponse()
        data = response.read()
        assert response.status == 200, (path, response.status)
        return json.loads(data)

    def close(self) -> None:
        self.conn.close()


def _percentile(sorted_values, q: float) -> float:
    index = min(len(sorted_values) - 1,
                max(0, int(q * len(sorted_values))))
    return sorted_values[index]


def _warm_p50_ms(client: _Client, samples: int) -> float:
    latencies = []
    for _ in range(samples):
        t0 = time.perf_counter_ns()
        status, _ = client.post("/v1/exhibit", {"name": "table1"})
        assert status == 200
        latencies.append(time.perf_counter_ns() - t0)
    latencies.sort()
    return _percentile(latencies, 0.5) / 1e6


def test_warm_hits_stay_fast_under_cold_overload(bench_json):
    store_dir = tempfile.mkdtemp(prefix="bench-resilience-")
    config = ServeConfig(compute_workers=2, queue_depth=1,
                         queue_timeout=0.05)
    server = ReproServer(store=ResultStore(store_dir), config=config)
    server.start_background()
    host, port = server.address
    try:
        warm_client = _Client(host, port)
        status, _ = warm_client.post("/v1/exhibit", {"name": "table1"})
        assert status == 200  # populate the store (cold, via pool)

        uncontended_p50 = _warm_p50_ms(warm_client, WARM_SAMPLES)
        stats_before = warm_client.get_json("/v1/stats")

        # -- the overload: unique cold sweeps from LOAD_THREADS ------
        stop = threading.Event()
        load_started = threading.Event()
        statuses = []
        lock = threading.Lock()

        def hammer(thread_index: int) -> None:
            client = _Client(host, port)
            try:
                serial = 0
                while not stop.is_set():
                    # unique sizes => always a cold compute; it either
                    # occupies the gate, waits in its single queue
                    # slot, or sheds E-BUSY after 50 ms; 64 points per
                    # sweep is a couple of seconds of real pool work,
                    # so the gate stays saturated while the
                    # listener thread blocks outside the GIL
                    base = 100_000 * (thread_index + 1) + 64 * serial
                    serial += 1
                    status, _ = client.post(
                        "/v1/sweep",
                        {"domain": "word_lm",
                         "sizes": [float(base + i)
                                   for i in range(64)]})
                    with lock:
                        statuses.append(status)
                    load_started.set()
                    if status == 429:
                        # honor Retry-After like a well-behaved
                        # client (capped so the window stays busy)
                        stop.wait(min(client.retry_after, 0.5))
            finally:
                client.close()

        threads = [threading.Thread(target=hammer, args=(i,))
                   for i in range(LOAD_THREADS)]
        wall0 = time.perf_counter()
        for thread in threads:
            thread.start()
        assert load_started.wait(timeout=60.0), "load never started"

        # warm hits measured while the overload is live
        contended_p50 = _warm_p50_ms(warm_client, WARM_SAMPLES)

        # keep the pressure on for the full window so the admission
        # counters reflect a sustained overload, then stop
        remaining = LOAD_SECONDS - (time.perf_counter() - wall0)
        if remaining > 0:
            time.sleep(remaining)
        stop.set()
        for thread in threads:
            thread.join(timeout=120)
        wall = time.perf_counter() - wall0
        stats_after = warm_client.get_json("/v1/stats")
        warm_client.close()

        def delta(name: str) -> float:
            return (stats_after["metrics"].get(name, {}).get("value", 0)
                    - stats_before["metrics"].get(name, {}).get(
                        "value", 0))

        total = len(statuses)
        assert total > 0
        structured = sum(1 for s in statuses if s in (200, 429))
        headroom = 2.0 * uncontended_p50 / max(contended_p50, 1e-9)

        payload = {
            "server_resilience": {
                "overload": {
                    "load_threads": LOAD_THREADS,
                    "warm_samples": WARM_SAMPLES,
                    "overload_requests": total,
                    "uncontended_warm_p50_ms": round(uncontended_p50,
                                                     4),
                    "contended_warm_p50_ms": round(contended_p50, 4),
                    "warm_hit_p50_headroom": round(headroom, 3),
                    "structured_rate": round(structured / total, 4),
                    "shed_count": delta("serve.admission.shed"),
                    "queued_count": delta("serve.admission.queued"),
                    "admitted_count": delta("serve.admission.admitted"),
                    "goodput_qps": round(
                        statuses.count(200) / wall, 2),
                },
            },
        }
        bench_json("BENCH_server_resilience", payload)

        overload = payload["server_resilience"]["overload"]
        print("\nserver resilience: warm table1 p50 "
              f"{overload['uncontended_warm_p50_ms']}ms uncontended "
              f"-> {overload['contended_warm_p50_ms']}ms under "
              f"{LOAD_THREADS}-thread cold overload "
              f"(headroom {overload['warm_hit_p50_headroom']}, "
              f"floor {HEADROOM_FLOOR}); "
              f"{overload['overload_requests']} overload requests: "
              f"{overload['admitted_count']:.0f} admitted, "
              f"{overload['queued_count']:.0f} queued, "
              f"{overload['shed_count']:.0f} shed, "
              f"goodput {overload['goodput_qps']} q/s")

        # acceptance: contended warm p50 within 2x uncontended
        assert headroom >= HEADROOM_FLOOR, (
            f"warm p50 degraded {contended_p50 / uncontended_p50:.2f}x"
            f" under cold load (bound is 2x): "
            f"{uncontended_p50:.3f}ms -> {contended_p50:.3f}ms")
        assert structured == total, (
            f"{total - structured} unstructured overload responses: "
            f"{sorted(set(statuses))}")
        assert overload["shed_count"] >= 1, (
            "overload never shed — compute gate not saturated")
    finally:
        server.shutdown()
