"""What the workloads share: process plumbing and the shapes of a
measured run.

Every program process is started here, so each run's isolation
(its own store, history file and tmp), its per-process CPU time and
peak RSS, and the guarantee that no child outlives the run live in one
place.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
LAUNCHER = os.path.join(BENCH_DIR, "launch.py")
PYTHON = sys.executable

#: the longest any single program process may run before it is killed
#: and counted as failed
PROCESS_TIMEOUT_S = 150.0


@dataclass
class ProcResult:
    returncode: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: bytes
    stderr: bytes

    @property
    def ok(self) -> bool:
        return self.returncode == 0


@dataclass
class RunContext:
    """Where a run lives and how its program processes are started."""

    root: str
    workload: str
    seed: int
    seconds: int
    work: str
    env: Dict[str, str] = field(default_factory=dict)
    live: List[subprocess.Popen] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    #: output checks that are not a timed operation: (made, failed)
    checks: List[int] = field(default_factory=lambda: [0, 0])

    @classmethod
    def create(cls, root: str, workload: str, seed: int,
               seconds: int) -> "RunContext":
        work = os.path.join(root, ".e2ebench-work",
                            f"{workload}-s{seed}-p{os.getpid()}")
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(os.path.join(work, "tmp"))
        env = dict(os.environ)
        # the store keys ignore code changes, so a store shared between
        # runs could serve bytes another commit computed: every run
        # gets its own store, history and tmp
        env.update({
            "PYTHONPATH": os.path.join(root, "src"),
            "PYTHONHASHSEED": "0",
            "REPRO_CACHE_DIR": os.path.join(work, "store"),
            "REPRO_HISTORY": os.path.join(work, "history.jsonl"),
            "TMPDIR": os.path.join(work, "tmp"),
        })
        return cls(root, workload, seed, seconds, work, env)

    def check(self, ok: bool, note: str) -> bool:
        """Count one output check; a failing one is noted."""
        self.checks[0] += 1
        if not ok:
            self.checks[1] += 1
            self.notes.append(note)
        return ok

    def path(self, *parts: str) -> str:
        return os.path.join(self.work, *parts)

    # -- program processes -------------------------------------------
    def module_argv(self, module: str, args: Sequence[str],
                    trace_out: Optional[str] = None) -> List[str]:
        """argv running ``python -m module args`` (a module of this
        benchmark's own, such as ``solver_check``, runs as a script);
        with ``trace_out`` the same main runs under the layer-wrapping
        launcher."""
        if trace_out is None:
            script = os.path.join(BENCH_DIR, f"{module}.py")
            if os.path.isfile(script):
                return [PYTHON, script, *args]
            return [PYTHON, "-m", module, *args]
        return [PYTHON, LAUNCHER, "--out", trace_out, module, *args]

    def spawn(self, argv: List[str], label: str) -> subprocess.Popen:
        out = open(self.path(f"{label}.out"), "wb")
        err = open(self.path(f"{label}.err"), "wb")
        try:
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env,
                                    stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
        finally:
            out.close()
            err.close()
        self.live.append(proc)
        return proc

    def reap(self, proc: subprocess.Popen, label: str, t0: float,
             timeout: float = PROCESS_TIMEOUT_S) -> ProcResult:
        """Wait for ``proc`` and collect its own rusage."""
        timer = threading.Timer(timeout, _kill, (proc,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.live.remove(proc)
        with open(self.path(f"{label}.out"), "rb") as handle:
            stdout = handle.read()
        with open(self.path(f"{label}.err"), "rb") as handle:
            stderr = handle.read()
        return ProcResult(proc.returncode, wall,
                          usage.ru_utime + usage.ru_stime,
                          usage.ru_maxrss / 1024.0, stdout, stderr)

    def run(self, argv: List[str], label: str) -> ProcResult:
        """Run one program process to completion."""
        t0 = time.perf_counter()
        proc = self.spawn(argv, label)
        result = self.reap(proc, label, t0)
        if not result.ok:
            tail = result.stderr.decode(errors="replace")[-400:]
            self.notes.append(f"{label}: exit {result.returncode}: "
                              f"{tail.strip()}")
        return result

    def setup_times(self, module: str, n: int = 5) -> List[float]:
        """Fresh-interpreter time until ``module`` is imported."""
        times = []
        for i in range(n):
            result = self.run([PYTHON, "-c", f"import {module}"],
                              f"setup{i}")
            if not result.ok:
                raise RuntimeError(f"cannot import {module}")
            times.append(result.wall_s)
        return times

    def close(self) -> None:
        """Stop and reap every child still running, then drop the
        run's directory."""
        for proc in list(self.live):
            _kill(proc)
            proc.wait()
        self.live.clear()
        shutil.rmtree(self.work, ignore_errors=True)


def _kill(proc: subprocess.Popen) -> None:
    try:
        proc.send_signal(signal.SIGKILL)
    except ProcessLookupError:
        pass


def proc_cpu_s(pid: int) -> float:
    """User+system CPU seconds a live process has used so far."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def load_json(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


# -- statistics --------------------------------------------------------------

def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def nearest_rank(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile (0..1) by nearest rank: an observed value."""
    ordered = sorted(values)
    index = min(len(ordered), max(1, math.ceil(q * len(ordered)))) - 1
    return float(ordered[index])


def host_probe() -> float:
    """Seconds one fixed pure-stdlib loop takes on this host now.

    Printed before and after each run as a diagnostic, so a slow host
    can be told apart from a slow commit; never used to scale metrics.
    """
    t0 = time.perf_counter()
    table: Dict[int, int] = {}
    acc = 0
    for i in range(400_000):
        table[i & 1023] = acc
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - t0


# -- measured runs -----------------------------------------------------------

#: the 20 exhibits of ``repro-report all``; the per-exhibit layer
#: metrics are named after them
EXHIBITS = sorted([
    "table1", "table2", "table3", "table4", "table5",
    "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
    "ablation_cache", "ablation_memory", "ablation_interconnect",
    "ablation_precision", "ablation_scheduler", "ablation_fusion",
    "ablation_compression", "auto_plan",
])


@dataclass
class Op:
    """One timed operation: a program invocation or a request."""

    label: str
    hit: bool            # repeats an input the run has already used
    latency_ms: float
    ok: bool


@dataclass
class Outcome:
    """What an untraced workload run measured."""

    setup_s: float
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    ops: List[Op]
    limit_ms: float
    diagnostics: Dict[str, object] = field(default_factory=dict)


def merge_layer_files(paths: List[str]) -> Dict[str, dict]:
    """Sum the launcher outputs of several traced processes."""
    merged: Dict[str, dict] = {"stats": {}, "counts": {}, "counters": {}}
    for path in paths:
        data = load_json(path)
        for name, rec in data["stats"].items():
            into = merged["stats"].setdefault(
                name, {"calls": 0, "incl_ms": 0.0, "self_ms": 0.0})
            for key in into:
                into[key] += rec[key]
        for section in ("counts", "counters"):
            for name, value in data[section].items():
                merged[section][name] = (merged[section].get(name, 0)
                                         + value)
    return merged
