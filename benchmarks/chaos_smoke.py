"""Chaos + overload smoke against the real ``repro-serve`` daemon.

One deterministic scripted run that drives every resilience mechanism
at least once, so the CI chaos-gate can floor-check the daemon's
recorded metrics afterwards:

* a met deadline and an exceeded one (E-DEADLINE 504);
* two injected ``plan`` compute errors, each a structured E-EXEC 503
  for that request alone;
* a chaos ``kill_worker`` against ``--compute-workers 1`` — the
  listener survives, the supervised pool restarts
  (``exec.pool.restarts``), and serving resumes;
* a concurrent burst of slow cold sweeps against the compute gate,
  one compute wide (it follows ``--compute-workers 1``) with one
  queue slot — some requests queue, some shed E-BUSY 429;
* SIGTERM at the end: graceful shutdown, exit 0.

The script asserts the headline invariants itself (only structured
statuses, zero unstructured 500s, daemon exits 0) and leaves the
daemon's run record in ``$REPRO_HISTORY`` for::

    repro-obs check --floors benchmarks/OBS_floors.json --section serve

Run:  REPRO_HISTORY=/tmp/serve_history.jsonl \\
      PYTHONPATH=src python benchmarks/chaos_smoke.py
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

ALLOWED_STATUSES = {200, 202, 400, 404, 408, 413, 429, 503, 504}

#: the fault schedule, matched against the daemon's leader-query
#: indices (the scripted phase below is single-threaded, so indices
#: 1..6 are exact; the concurrent burst runs after every pointed fault)
CHAOS_PLAN = {
    "seed": 20190216,
    "faults": [
        {"op": "error", "endpoint": "plan", "at_request": 4},
        {"op": "error", "endpoint": "plan", "at_request": 5},
        {"op": "kill_worker", "endpoint": "exhibit", "at_request": 6},
        {"op": "latency", "endpoint": "sweep", "from_request": 7,
         "ms": 400},
    ],
}


def request(url: str, path: str, payload=None, timeout=60.0):
    """(status, parsed JSON body); asserts structure on every error."""
    data = (None if payload is None
            else json.dumps(payload).encode("utf-8"))
    req = urllib.request.Request(
        url + path, data=data,
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req, timeout=timeout) as response:
            status, body = response.status, response.read()
    except urllib.error.HTTPError as error:
        status, body = error.code, error.read()
    assert status in ALLOWED_STATUSES, (path, status, body[:300])
    text = body.decode("utf-8", "replace")
    assert "Traceback" not in text, (path, status, text[:300])
    parsed = json.loads(body)
    if status >= 400:
        assert set(parsed) == {"error"}, (path, status, parsed)
        assert "code" in parsed["error"], (path, status, parsed)
    return status, parsed


def main() -> int:
    tmp = tempfile.mkdtemp(prefix="chaos-smoke-")
    plan_path = os.path.join(tmp, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as handle:
        json.dump(CHAOS_PLAN, handle)

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    env["PYTHONUNBUFFERED"] = "1"
    env.setdefault("REPRO_HISTORY",
                   os.path.join(tmp, "serve_history.jsonl"))
    print(f"history: {env['REPRO_HISTORY']}")

    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro.serve",
         "--port", "0",
         "--cache-dir", os.path.join(tmp, "cache"),
         "--compute-workers", "1",
         "--queue-depth", "1",
         "--queue-timeout", "0.2",
         "--chaos-plan", plan_path],
        cwd=REPO_ROOT, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        announce = json.loads(daemon.stdout.readline())
        url = announce["url"]
        print(f"daemon up at {url} (pid {announce['pid']})")
        # a GET is not a leader query, so the fault indices hold
        status, health = request(url, "/healthz")
        assert status == 200
        assert health["admission"]["width"] == 1, health["admission"]

        # -- scripted single-threaded phase: indices 1..6 ------------
        # 1: plain cold compute
        assert request(url, "/v1/exhibit", {"name": "table2"})[0] == 200
        # 2: warm hit under a generous deadline -> deadline.met
        status, _ = request(
            url, "/v1/exhibit?deadline_ms=600000", {"name": "table2"})
        assert status == 200
        # 3: impossible deadline -> structured 504, deadline.exceeded
        status, body = request(
            url, "/v1/sweep?deadline_ms=0.001", {"domain": "word_lm"})
        assert status == 504, body
        assert body["error"]["code"] == "E-DEADLINE"
        # 4+5: injected compute errors -> one 503 each
        for _ in range(2):
            status, body = request(url, "/v1/plan",
                                   {"domain": "word_lm"})
            assert status == 503, body
            assert body["error"]["code"] == "E-EXEC"
        # 6: chaos kills the pool worker -> structured 503, restart
        status, body = request(url, "/v1/exhibit", {"name": "table4"})
        assert status == 503, body
        assert body["error"]["code"] == "E-EXEC"
        # while the pool rebuilds behind its backoff gate, requests
        # fail fast as structured 503s; nothing sheds them as 429
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            status, body = request(url, "/v1/exhibit",
                                   {"name": "table4"})
            if status == 200:
                break
            assert status == 503, body
            time.sleep(0.1)
        assert status == 200, "pool never recovered from kill_worker"
        print("supervised pool recovered from worker kill")

        # -- concurrent overload burst: queueing + shedding ----------
        results = []
        lock = threading.Lock()

        def cold_sweep(index: int) -> None:
            status, body = request(
                url, "/v1/sweep",
                {"domain": "word_lm",
                 "sizes": [256.0, 512.0, 1024.0 + index]})
            with lock:
                results.append(status)

        threads = [threading.Thread(target=cold_sweep, args=(i,))
                   for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert len(results) == 6, results
        assert results.count(429) >= 1, (
            f"overload burst never shed: {results}")
        assert all(code in (200, 429) for code in results), results
        print(f"overload burst statuses: {sorted(results)}")

        status, health = request(url, "/healthz")
        assert status == 200
        assert health["chaos"]["requests_seen"] >= 13
        print(f"chaos snapshot: {health['chaos']}")
    except BaseException:
        daemon.kill()
        out, err = daemon.communicate(timeout=30)
        print("daemon stderr tail:\n" + err[-3000:], file=sys.stderr)
        raise
    # -- graceful shutdown -------------------------------------------
    daemon.send_signal(signal.SIGTERM)
    out, err = daemon.communicate(timeout=60)
    assert daemon.returncode == 0, (
        f"shutdown exited {daemon.returncode}: {err[-2000:]}")
    print("daemon shut down clean (exit 0)")
    print("chaos smoke passed; gate the record with:\n"
          f"  REPRO_HISTORY={env['REPRO_HISTORY']} "
          "python -m repro.obs.cli check "
          "--floors benchmarks/OBS_floors.json --section serve")
    return 0


if __name__ == "__main__":
    sys.exit(main())
