"""repro.exec — parallel artifact execution engine + result store.

The paper's deliverables are embarrassingly parallel: every table,
figure, and artifact output file is an independent
(model × domain-point × planner-choice) evaluation.  This package adds
the ROADMAP's "sharding, batching, async, caching" layer to that hot
path:

* **engine** (:mod:`.engine`) — a task-list execution engine (one task
  per artifact unit or report exhibit, run in submitted order).  Each
  task runs once; a failing task is reported, not retried.  The first
  pool fault (a worker death, a refused submit, a task past its
  timeout) hands every unfinished task to serial in-process
  execution, the mode ``max_workers=0`` always uses.  Its workers come
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

* **signals** (:mod:`.signals`) — two-stage SIGINT/SIGTERM handling:
  first signal drains (exit code 3: rerun the same command and the
  store answers the finished tasks), second hard-aborts.

Cache hits/misses/evictions and engine failures/timeouts/degradations
are counted in :mod:`repro.obs` metrics and visible via ``--metrics``.
"""

from .engine import (
    ExecError,
    ExecutionEngine,
    Task,
    TaskResult,
)
from .signals import GracefulShutdown
from .store import ResultStore, content_key, default_cache_dir

__all__ = [
    "ExecutionEngine", "Task", "TaskResult", "ExecError",
    "ResultStore", "content_key", "default_cache_dir",
    "GracefulShutdown",
]
