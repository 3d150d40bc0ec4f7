"""``serve_mixed``: the analyst's path through one ``repro-serve``.

One daemon with default settings and a fresh store.  Set-up warms the
repeated specs.  The timed phase is an open loop at ``RATE`` requests
per second for ``--seconds`` seconds, sent from this process over two
keep-alive connections; each request is timed from when it was due.
The stream is a fixed layout (see README.md for where each share comes
from) of:

* repeated sweep, plan, lint and exhibit specs (store hits);
* novel cheap sweeps and plans (symbolic eval, planner, store writes);
* novel footprint sweeps, and a few novel plans that re-derive an
  evicted default sweep: the slow computes, each followed by a quiet
  window of repeated specs;
* novel specs sent on both connections at once (coalescing).

Checks: every reply is 200 and canonical JSON, repeated specs return
the bytes set-up got, coalesced pairs get identical bytes, novel
replies describe the request, and the served golden exhibits match
the goldens under the golden suite's comparator.
"""

from __future__ import annotations

import http.client
import json
import random
import signal
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

import harness
from harness import Op, Outcome, merge_layer_files

#: 100 requests/s for the 10 s of a run gives the 1,000 requests that
#: put ten samples beyond p99
RATE = 100.0
#: a request slower than this counts against within_limit_share: the
#: four slow computes below take 0.1-0.5 s, everything else tens of ms
#: at most
LIMIT_MS = 100.0
#: The stream is a fixed layout of blocks of BLOCK due times; the seed
#: picks only the numbers inside each spec (sizes, parameter counts,
#: tolerances) and which repeated spec fills a repeated slot.  So every
#: run does the same work in the same order, and where a slow request
#: lands, and what it delays, is not luck of the seed.
BLOCK = 50
#: Slot 0 of each block is a novel footprint sweep on image: 16 sizes
#: (about 25 ms) in even blocks, 4 (about 7 ms) in odd ones, except in
#: the blocks of SLOW, where it is a slow compute on word_lm or nmt: a
#: 2-size footprint sweep (about 0.12 s), or a plan.  A plan reads its
#: domain's default sweep from the 32-entry sweep memo
#: (``analysis.sweep``); each block inserts five novel sweeps into it,
#: so by block 9 the default sweeps the warm-up left there are evicted
#: and each of these plans re-derives its domain's (about 0.3 s): the
#: memo's miss cost shows a fixed number of times a run.
SLOW_CYCLE = 20
SLOW = {3: ("sweep", "word_lm"), 9: ("plan", "word_lm"),
        13: ("sweep", "nmt"), 19: ("plan", "nmt")}
#: the due times after a slow compute that carry only repeated specs
#: (store hits, which never wait for a compute), so that no novel spec
#: queues behind it: the rest of the block after a plan
QUIET_SWEEP, QUIET_PLAN = 35, BLOCK
#: sizes of the image footprint sweep in even and odd blocks.  p99_ms
#: is the eleventh-slowest of the ~1,018 requests of a 10 s run; the
#: four slow computes are the slowest, and the ten 16-size sweeps (SLOW
#: blocks are all odd) come next, well above every other request.  So
#: p99_ms is the fourth-fastest of ten like computes: a stall of the
#: host that slows a few of them, or a store hit it delays, moves it
#: little.  With one kind of sweep, p99_ms sat where a few delayed
#: store hits could push it from one group of requests to another.
IMAGE_SIZES = (16, 4)
#: novel cheap specs in each block: 3-size sweeps without footprint
#: (domain cycling through CHEAP_DOMAINS) and plans on image (about 6
#: and 3 ms); the pair is a sweep sent on both connections at once
#: (coalescing).  They start at slot 10, after the image footprint
#: sweep is done.
CHEAP_SLOTS = {10: "sweep", 20: "plan", 30: "sweep", 40: "sweep",
               45: "pair"}
CHEAP_DOMAINS = ["word_lm", "nmt", "image"]

REPEATED: List[Tuple[str, dict]] = [
    ("sweep", {"domain": "word_lm"}),
    ("sweep", {"domain": "image"}),
    ("sweep", {"domain": "nmt", "include_footprint": False}),
    ("plan", {"domain": "word_lm"}),
    ("plan", {"domain": "image"}),
    ("plan", {"domain": "nmt"}),
    ("lint", {"domains": ["image"]}),
    ("exhibit", {"name": "table1"}),
    ("exhibit", {"name": "fig6"}),
    ("exhibit", {"name": "table4"}),
]
#: (low, high) of each domain's size knob for novel sweeps
SIZE_RANGE = {"word_lm": (512, 4096), "nmt": (512, 3072),
              "image": (1, 5)}

Request = Tuple[str, dict]


def canonical(body: bytes) -> bool:
    return json.dumps(json.loads(body), sort_keys=True,
                      separators=(",", ":")).encode() == body


class Stream:
    """The request schedule: (due offset s, kind, request)."""

    def __init__(self, seed: int, seconds: int):
        rng = random.Random(seed)
        sweeps = 0      # novel cheap sweeps so far: with the block,
        # picks their domain, so each domain gets every kind of slot
        quiet = 0       # the last slot of the current quiet window
        self.items: List[Tuple[float, str, Request]] = []
        for i in range(int(RATE * seconds)):
            due = i / RATE
            block, slot = divmod(i, BLOCK)
            cheap = CHEAP_SLOTS.get(slot)
            slow = SLOW.get(block % SLOW_CYCLE)
            if slot == 0:
                quiet = 0
                if slow is None:
                    request = self._sweep(rng, "image",
                                          IMAGE_SIZES[block % 2], True)
                elif slow[0] == "plan":
                    request = self._plan(rng, slow[1])
                    quiet = QUIET_PLAN
                else:
                    request = self._sweep(rng, slow[1], 2, True)
                    quiet = QUIET_SWEEP
                self.items.append((due, "novel", request))
            elif cheap is None or slot <= quiet:
                self.items.append((due, "repeat", rng.choice(REPEATED)))
            elif cheap == "plan":
                self.items.append((due, "novel",
                                   self._plan(rng, "image")))
            else:
                domain = CHEAP_DOMAINS[(sweeps + block)
                                       % len(CHEAP_DOMAINS)]
                sweeps += 1
                spec = self._sweep(rng, domain, 3, False)
                if cheap == "pair":
                    self.items += [(due, "pair", spec), (due, "pair", spec)]
                else:
                    self.items.append((due, "novel", spec))

    @staticmethod
    def _sweep(rng: random.Random, domain: str, n: int,
               footprint: bool) -> Request:
        low, high = SIZE_RANGE[domain]
        sizes = sorted(round(rng.uniform(low, high), 3) for _ in range(n))
        return ("sweep", {"domain": domain, "include_footprint": footprint,
                          "sizes": sizes})

    @staticmethod
    def _plan(rng: random.Random, domain: str) -> Request:
        return ("plan", {"domain": domain,
                         "params": round(10 ** rng.uniform(7, 10)),
                         "tolerance": rng.choice([0.02, 0.05, 0.1])})


def _novel_ok(request: Request, body: bytes) -> bool:
    endpoint, params = request
    reply = json.loads(body)
    result = reply["result"]
    if reply["endpoint"] != endpoint or \
            result["domain"] != params["domain"]:
        return False
    if endpoint == "sweep":
        return [row["size"] for row in result["rows"]] == params["sizes"]
    return result["choice"]["chosen"] > 0 and \
        reply["params"]["params"] == params["params"]


class Daemon:
    """A ``repro-serve`` process and a keep-alive client to it."""

    def __init__(self, ctx: harness.RunContext, label: str,
                 trace_out: Optional[str]):
        self.ctx, self.label = ctx, label
        self.t0 = time.perf_counter()
        # a store per session: a traced and an untraced session of one
        # run must both start cold
        args = ["--port", "0", "--cache-dir", ctx.path(f"{label}.store")]
        self.proc = ctx.spawn(ctx.module_argv(
            "repro.serve.cli", args, trace_out), label)
        self.port = self._await_port()

    def _await_port(self) -> int:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError("repro-serve exited during start-up")
            with open(self.ctx.path(f"{self.label}.out")) as handle:
                for line in handle:
                    if '"serving"' in line:
                        return json.loads(line)["port"]
            time.sleep(0.02)
        raise RuntimeError("repro-serve did not announce a port")

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=120)

    @staticmethod
    def post(conn: http.client.HTTPConnection,
             request: Request) -> Tuple[int, bytes]:
        endpoint, params = request
        conn.request("POST", f"/v1/{endpoint}", body=json.dumps(params),
                     headers={"Content-Type": "application/json"})
        reply = conn.getresponse()
        return reply.status, reply.read()

    def stop(self) -> harness.ProcResult:
        self.proc.send_signal(signal.SIGTERM)
        return self.ctx.reap(self.proc, self.label, self.t0, timeout=60)


def _warm_up(ctx: harness.RunContext, daemon: Daemon
             ) -> Tuple[Dict[str, bytes], float]:
    """Answer every repeated spec once; returns their bytes and the
    client-side seconds spent."""
    conn = daemon.connect()
    baseline, spent = {}, 0.0
    try:
        for request in REPEATED:
            t0 = time.perf_counter()
            status, body = Daemon.post(conn, request)
            spent += time.perf_counter() - t0
            if status != 200 or not canonical(body):
                raise RuntimeError(f"warm-up {request} failed: {status}")
            baseline[json.dumps(request, sort_keys=True)] = body
    finally:
        conn.close()
    return baseline, spent


def _golden_problems(ctx: harness.RunContext,
                     baseline: Dict[str, bytes]) -> List[str]:
    if ctx.root not in sys.path:
        sys.path.insert(0, ctx.root)
    from tests.golden import _compare

    problems = []
    for key, body in baseline.items():
        endpoint, params = json.loads(key)
        if endpoint == "exhibit":
            name = params["name"]
            problems.extend(_compare.diff_exhibit(
                name, json.loads(body)["result"],
                _compare.load_golden(name)))
    return problems


def _stream(daemon: Daemon, stream: Stream, baseline: Dict[str, bytes]):
    """Send the stream open-loop; returns per-request records."""
    records: List[Optional[tuple]] = [None] * len(stream.items)
    cursor = [0]
    lock = threading.Lock()
    start = time.perf_counter() + 0.05

    def worker() -> None:
        conn = daemon.connect()
        try:
            while True:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= len(stream.items):
                    return
                due, kind, request = stream.items[index]
                delay = start + due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                try:
                    status, body = Daemon.post(conn, request)
                except (OSError, http.client.HTTPException):
                    conn.close()
                    conn = daemon.connect()
                    status, body = 0, b""
                records[index] = (start + due, sent, time.perf_counter(),
                                  status, body)
        finally:
            conn.close()

    cpu0 = harness.proc_cpu_s(daemon.proc.pid)
    threads = [threading.Thread(target=worker) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    cpu = harness.proc_cpu_s(daemon.proc.pid) - cpu0
    end = max(rec[2] for rec in records)

    ops: List[Op] = []
    pairs: Dict[str, List[bytes]] = {}
    client_ms = 0.0
    for (_, kind, request), (due, sent, done, status, body) in zip(
            stream.items, records):
        key = json.dumps(request, sort_keys=True)
        ok = status == 200 and canonical(body)
        if ok and kind == "repeat":
            ok = body == baseline[key]
        elif ok:
            ok = _novel_ok(request, body)
        if kind == "pair":
            pairs.setdefault(key, []).append(body)
        ops.append(Op(f"{kind} {request[0]}", kind == "repeat",
                      (done - due) * 1e3, ok))
        client_ms += (done - sent) * 1e3
    for (_, kind, request), op in zip(stream.items, ops):
        key = json.dumps(request, sort_keys=True)
        if kind == "pair" and len(set(pairs[key])) != 1:
            op.ok = False
    lateness = sorted((sent - due) * 1e3
                      for due, sent, *_ in records)
    return ops, end - start, cpu, client_ms, lateness


def _session(ctx: harness.RunContext, label: str, traced: bool,
             seconds: int):
    """Start a daemon, warm it up, send ``seconds`` of the stream."""
    trace_out = ctx.path(f"{label}.layers.json") if traced else None
    daemon = Daemon(ctx, label, trace_out)
    try:
        baseline, warm_client_s = _warm_up(ctx, daemon)
        setup_s = time.perf_counter() - daemon.t0
        setup_cpu_s = harness.proc_cpu_s(daemon.proc.pid)
        problems = _golden_problems(ctx, baseline)
        ctx.check(not problems, f"served goldens differ: {problems[:5]}")
        stream = Stream(ctx.seed, seconds)
        ops, wall, cpu, client_ms, lateness = _stream(daemon, stream,
                                                      baseline)
    finally:
        final = daemon.stop()
    ctx.check(final.ok, f"repro-serve exited {final.returncode}")
    return {"setup_s": setup_s, "wall_s": wall, "cpu_s": cpu,
            "rss_mb": final.rss_mb, "setup_cpu_s": setup_cpu_s,
            "ops": ops, "lateness": lateness,
            "client_ms": client_ms + warm_client_s * 1e3,
            "trace_out": trace_out}


def run(ctx: harness.RunContext) -> Outcome:
    s = _session(ctx, "serve", traced=False, seconds=ctx.seconds)
    lateness = s["lateness"]
    return Outcome(
        setup_s=s["setup_s"], wall_s=s["wall_s"], cpu_s=s["cpu_s"],
        peak_rss_mb=s["rss_mb"], ops=s["ops"], limit_ms=LIMIT_MS,
        diagnostics={
            "requests": len(s["ops"]),
            "generator_lateness_ms": (
                f"p50={harness.median(lateness):.3f} "
                f"p99={harness.nearest_rank(lateness, 0.99):.3f} "
                f"max={lateness[-1]:.3f}")},
    )


def traced(ctx: harness.RunContext):
    s = _session(ctx, "traced", traced=True, seconds=ctx.seconds)
    # tracing overhead: the daemon's set-up CPU time (graph building
    # and the first computes) again, untraced, with a token stream
    plain = _session(ctx, "plain", traced=False, seconds=1)
    merged = merge_layer_files([s["trace_out"]])
    service_ms = merged["stats"].get("serve", {}).get("incl_ms", 0.0)
    overhead = s["setup_cpu_s"] / plain["setup_cpu_s"] - 1.0
    return (merged, s["client_ms"] - service_ms, overhead,
            s["ops"] + plain["ops"])
