"""Load-test the analysis server: latency, throughput, warm-path gain.

Drives an in-process :class:`repro.serve.server.ReproServer` (real
sockets, keep-alive HTTP/1.1 connections) with a deterministic mixed
workload — sweeps, plans, lints, and exhibits — from several client
threads, and records ``BENCH_server.json``:

* ``p50_ms`` / ``p99_ms`` — per-request wall latency over the run;
* ``queries_per_sec`` — total requests / wall time;
* ``coalesce_rate`` — fraction of queries answered by riding an
  identical in-flight computation;
* ``store_hit_rate`` — fraction of store lookups served from the
  content-addressed result store;
* ``warm_speedup_vs_cold_cli`` — warm-store p50 for a repeated
  Table-1 query vs one cold ``repro-report table1`` process launch
  (the number that justifies a daemon: ≥10× is the acceptance floor).

``BENCH_SERVER_QUERIES`` scales the run (default 10000; CI smoke uses
1000).  ``benchmarks/check_bench_floors.py --section server`` gates
the recorded numbers against ``benchmarks/BENCH_floors.json``.

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_server.py -s -q
"""

from __future__ import annotations

import http.client
import json
import os
import random
import subprocess
import sys
import tempfile
import threading
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.exec.store import ResultStore  # noqa: E402
from repro.serve.server import ReproServer  # noqa: E402

N_QUERIES = int(os.environ.get("BENCH_SERVER_QUERIES", "10000"))
N_THREADS = 8
WARM_TABLE1_SAMPLES = 200
SPEEDUP_FLOOR = 10.0

#: the mixed workload — every paper query surface, several variants
SPECS = [
    ("/v1/exhibit", {"name": "table1"}),
    ("/v1/exhibit", {"name": "table4"}),
    ("/v1/exhibit", {"name": "fig9"}),
    ("/v1/plan", {"domain": "word_lm"}),
    ("/v1/plan", {"domain": "image"}),
    ("/v1/plan", {"domain": "speech"}),
    ("/v1/lint", {"domains": ["word_lm"]}),
    ("/v1/lint", {"domains": ["image", "char_lm"]}),
    ("/v1/sweep", {"domain": "word_lm",
                   "sizes": [256.0, 512.0, 1024.0]}),
    ("/v1/sweep", {"domain": "image", "sizes": [1.0, 2.0, 4.0]}),
    ("/v1/sweep", {"domain": "char_lm", "sizes": [256.0, 512.0]}),
    ("/v1/sweep", {"domain": "nmt", "sizes": [256.0, 512.0]}),
]


class _Client:
    """One keep-alive connection issuing JSON POST/GETs."""

    def __init__(self, host: str, port: int):
        self.conn = http.client.HTTPConnection(host, port, timeout=120)

    def post(self, path: str, payload: dict) -> bytes:
        body = json.dumps(payload).encode("utf-8")
        self.conn.request("POST", path, body,
                          {"Content-Type": "application/json"})
        response = self.conn.getresponse()
        data = response.read()
        assert response.status == 200, (path, response.status, data)
        return data

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


def _counter(stats: dict, name: str) -> float:
    return stats["metrics"].get(name, {}).get("value", 0)


def _cold_cli_table1_seconds() -> float:
    """One full ``repro-report table1`` process, empty cache."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    env["REPRO_CACHE_DIR"] = tempfile.mkdtemp(prefix="bench-cold-")
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "repro.cli", "table1"],
        cwd=REPO_ROOT, env=env, check=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - t0


def test_server_load(bench_json):
    store_dir = tempfile.mkdtemp(prefix="bench-serve-store-")
    server = ReproServer(store=ResultStore(store_dir))
    server.start_background()
    host, port = server.address
    try:
        warm_client = _Client(host, port)

        # one pass over every distinct spec: populate memo caches and
        # the result store, so the measured run is the steady state a
        # long-lived daemon actually serves
        for path, payload in SPECS:
            warm_client.post(path, payload)

        stats_before = warm_client.get_json("/v1/stats")

        # deterministic mixed workload, N_THREADS keep-alive clients
        rng = random.Random(20190216)
        workload = [SPECS[rng.randrange(len(SPECS))]
                    for _ in range(N_QUERIES)]
        shards = [workload[i::N_THREADS] for i in range(N_THREADS)]
        latencies_ns = [[] for _ in range(N_THREADS)]
        failures = []

        def run_shard(index: int) -> None:
            client = _Client(host, port)
            try:
                for path, payload in shards[index]:
                    t0 = time.perf_counter_ns()
                    client.post(path, payload)
                    latencies_ns[index].append(
                        time.perf_counter_ns() - t0)
            except Exception as error:  # pragma: no cover
                failures.append(error)
            finally:
                client.close()

        wall0 = time.perf_counter()
        threads = [threading.Thread(target=run_shard, args=(i,))
                   for i in range(N_THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - wall0
        assert not failures, failures

        stats_after = warm_client.get_json("/v1/stats")

        merged = sorted(t for shard in latencies_ns for t in shard)
        assert len(merged) == N_QUERIES

        def delta(name: str) -> float:
            return (_counter(stats_after, name)
                    - _counter(stats_before, name))

        coalesce_hits = delta("serve.coalesce.hit")
        coalesce_misses = delta("serve.coalesce.miss")
        store_hits = delta("exec.store.hit")
        store_misses = delta("exec.store.miss")
        coalesce_rate = coalesce_hits / max(
            1.0, coalesce_hits + coalesce_misses)
        store_hit_rate = store_hits / max(
            1.0, store_hits + store_misses)

        # the warm path vs a cold CLI process: the daemon's raison
        # d'etre, measured on the repeated Table-1 query
        warm_ns = []
        for _ in range(WARM_TABLE1_SAMPLES):
            t0 = time.perf_counter_ns()
            warm_client.post("/v1/exhibit", {"name": "table1"})
            warm_ns.append(time.perf_counter_ns() - t0)
        warm_ns.sort()
        warm_p50_s = _percentile(warm_ns, 0.5) / 1e9
        warm_client.close()

        cold_s = _cold_cli_table1_seconds()
        speedup = cold_s / warm_p50_s

        payload = {
            "server": {
                "load": {
                    "queries": N_QUERIES,
                    "threads": N_THREADS,
                    "distinct_specs": len(SPECS),
                    "p50_ms": round(
                        _percentile(merged, 0.5) / 1e6, 4),
                    "p99_ms": round(
                        _percentile(merged, 0.99) / 1e6, 4),
                    "queries_per_sec": round(N_QUERIES / wall, 2),
                    "coalesce_rate": round(coalesce_rate, 4),
                    "store_hit_rate": round(store_hit_rate, 4),
                    "computed_queries": delta("serve.query.computed"),
                    "warm_table1_p50_ms": round(warm_p50_s * 1e3, 4),
                    "cold_cli_table1_s": round(cold_s, 4),
                    "warm_speedup_vs_cold_cli": round(speedup, 2),
                },
            },
        }
        bench_json("BENCH_server", payload)

        load = payload["server"]["load"]
        print("\nserver load "
              f"({N_QUERIES} queries, {N_THREADS} threads): "
              f"p50 {load['p50_ms']}ms p99 {load['p99_ms']}ms "
              f"{load['queries_per_sec']} q/s; "
              f"coalesce {load['coalesce_rate']:.1%}, "
              f"store hits {load['store_hit_rate']:.1%}; "
              f"warm table1 {load['warm_table1_p50_ms']}ms vs cold "
              f"CLI {load['cold_cli_table1_s']}s "
              f"({load['warm_speedup_vs_cold_cli']}x)")

        # acceptance: the warm daemon path must beat a cold CLI
        # process launch by an order of magnitude
        assert speedup >= SPEEDUP_FLOOR, (
            f"warm table1 p50 {warm_p50_s * 1e3:.2f}ms is only "
            f"{speedup:.1f}x faster than the cold CLI "
            f"({cold_s:.2f}s); floor is {SPEEDUP_FLOOR}x")
        assert store_hit_rate > 0.0, "store never hit under load"
    finally:
        server.shutdown()
