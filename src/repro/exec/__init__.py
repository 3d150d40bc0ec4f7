"""repro.exec — parallel artifact execution engine + result store.

The paper's deliverables are embarrassingly parallel: every table,
figure, and artifact output file is an independent
(model × domain-point × planner-choice) evaluation.  This package adds
the ROADMAP's "sharding, batching, async, caching" layer to that hot
path:

* **engine** (:mod:`.engine`) — a task-DAG execution engine (one task
  per artifact unit or report exhibit) with per-task timeouts, bounded
  retry with exponential backoff, and graceful degradation to serial
  in-process execution when a worker dies, hangs, or
  ``max_workers=0``.  Its workers come
  from :class:`.engine.SupervisedPool`, the package's one process pool,
  which also runs ``repro-serve``'s cold computes::

      engine = ExecutionEngine(max_workers=4)
      results = engine.run([Task("t1", fn, args=(...,))])

* **store** (:mod:`.store`) — a content-addressed on-disk result store.
  Keys hash source digest + bindings + version: a memoized SHA-256
  of the ``repro`` source tree (:func:`.store.source_digest`), the
  bindings, and the package version, so a second
  ``repro-report``/``python -m repro.artifact`` invocation is
  warm-start and any code change that could alter a number misses
  cleanly.  No key builds a graph.

* **tasks** (:mod:`.tasks`) — the picklable module-level task functions
  the artifact pipeline fans out (config reports, report exhibits).

* **journal** (:mod:`.journal`) — the crash-safe append-only run
  journal behind ``--resume``: every task completion is durable the
  moment it happens, and a resumed run replays only digest-verified
  work.

* **signals** (:mod:`.signals`) — two-stage SIGINT/SIGTERM handling:
  first signal drains and checkpoints (exit code 3, resumable), second
  hard-aborts.

Cache hits/misses/evictions and engine retries/timeouts/fallbacks are
counted in :mod:`repro.obs` metrics and visible via ``--metrics``.
"""

from .engine import (
    ExecError,
    ExecutionEngine,
    Task,
    TaskResult,
    run_tasks,
)
from .journal import STATE_DIRNAME, RunJournal
from .signals import GracefulShutdown
from .store import ResultStore, content_key, default_cache_dir

__all__ = [
    "ExecutionEngine", "Task", "TaskResult", "ExecError", "run_tasks",
    "ResultStore", "content_key", "default_cache_dir",
    "RunJournal", "STATE_DIRNAME", "GracefulShutdown",
]
