"""Task-list execution engine and the package's one worker-process pool.

The artifact pipeline fans out as a list of independent, picklable
tasks (one per (model, table/figure) unit).  This engine runs that list,
in the order it is submitted, on a :class:`SupervisedPool` — the same
crash-supervised ``concurrent.futures`` pool that serves
``repro-serve``'s cold path, and the only class in the package that
starts worker processes.  Every task is a deterministic function, so a
failure is an answer, not a glitch to retry, and the engine has one
policy:

* **a task runs once** — a task that raises, or returns a payload its
  validator rejects, fails and is reported in :class:`ExecError`,
  in-process and in a worker alike;
* **the first pool fault hands the rest to the serial path** — a
  worker death (``BrokenProcessPool``), a ``submit`` the pool refuses,
  or a task past ``timeout`` closes the pool (SIGKILLing its workers),
  counts ``exec.engine.degraded`` once, and runs every unfinished task
  in-process.  A timed-out task fails with :class:`TimeoutError` and
  is not rerun: rerunning a hang in the parent would hang the run.
  ``timeout`` bounds pool tasks only; with ``max_workers=0`` the
  engine *is* the serial path: same code, no processes.

Results can be warm-started through a
:class:`~repro.exec.store.ResultStore`: tasks carrying a ``key`` are
looked up before dispatch and stored after success.  Every decision is
counted in :mod:`repro.obs` metrics (``exec.tasks.*``,
``exec.engine.degraded``) and the run is wrapped in spans so
``--trace`` shows the schedule.

**Cross-process observability**: each pool dispatch ships a trace
context (run id, parent span id, enabled flag, flow id) through the
:func:`repro.exec.tasks.run_traced` worker shim.  The worker runs a
buffering tracer plus a delta-capturing metrics registry and returns
completed spans and metric deltas alongside the result; the parent
merges them — worker spans land on their own pid track (clamped into
the parent-side dispatch window), dispatch→worker pairs are linked by
flow ids, and worker counts fold into the process registry.  Cache
hits, timeouts, and failures are all recorded as outcome-tagged
``exec.task`` spans, so a merged ``--trace`` shows the whole schedule
including what *didn't* run.

A ``stop`` callable (see :class:`~repro.exec.signals.GracefulShutdown`)
is polled between task completions.  When it flips, the engine stops
launching work, drains what is in flight, and raises
:class:`~repro.errors.RunInterrupted` (the CLIs map it to exit code 3).
Every finished keyed task is already in the result store by then, so
rerunning the same command answers it from the store and runs only the
rest.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .. import obs
from ..errors import ReproError, RunInterrupted
from .store import ResultStore
from .tasks import run_traced

__all__ = ["Task", "TaskResult", "ExecError", "ExecutionEngine",
           "SupervisedPool"]

_SUBMITTED = obs.counter("exec.tasks.submitted")
_COMPLETED = obs.counter("exec.tasks.completed")
_CACHE_HITS = obs.counter("exec.tasks.cache_hit")
_TIMEOUTS = obs.counter("exec.tasks.timeout")
_WORKER_ERRORS = obs.counter("exec.tasks.worker_error")
_INVALID = obs.counter("exec.tasks.invalid_payload")
_FAILURES = obs.counter("exec.tasks.failed")
_POOL_RESTARTS = obs.counter("exec.pool.restarts")
_DEGRADED = obs.counter("exec.engine.degraded")
_INTERRUPTED = obs.counter("resilience.signals.runs_interrupted")

#: polling granularity of the result-collection loop, seconds.  Tasks
#: are second-scale analyses, so 10 ms adds no measurable latency.
_POLL_INTERVAL = 0.01

#: growth factor and cap (seconds) of the pool's restart backoff gate
_BACKOFF_FACTOR = 2.0
_MAX_BACKOFF = 5.0


@dataclass
class Task:
    """One unit of an artifact run: ``fn(*args)``.

    ``fn`` must be picklable (a module-level function) when the engine
    runs with workers; ``validate`` runs in the *parent* on the
    returned payload, so it may be any callable.  ``key`` opts the task
    into the result store.
    """

    id: str
    fn: Callable[..., Any]
    args: Tuple = ()
    key: Optional[str] = None          # result-store key (opt-in)
    validate: Optional[Callable[[Any], bool]] = None
    #: paths this task writes (metadata for the pre-dispatch X-lint:
    #: two tasks declaring the same path is a write race)
    outputs: Tuple[str, ...] = ()


@dataclass
class TaskResult:
    """Outcome of one task: value or error, and provenance."""

    id: str
    value: Any = None
    error: Optional[BaseException] = None
    #: 'cache' | 'pool' | 'serial'
    source: str = "serial"

    @property
    def ok(self) -> bool:
        return self.error is None


class ExecError(ReproError, RuntimeError):
    """Raised when tasks fail (each runs once; see the module docstring).

    Carries the full result map so callers can salvage completed work.
    A :class:`~repro.errors.ReproError` (code ``E-EXEC``): the CLI
    renders each failed task's own taxonomy error, contexts included.
    """

    code = "E-EXEC"

    def __init__(self, failed: Sequence[TaskResult],
                 results: Dict[str, TaskResult]):
        self.failed = list(failed)
        self.results = results
        detail = "; ".join(
            f"{r.id}: {type(r.error).__name__}: {r.error}"
            for r in self.failed
        )
        super().__init__(f"{len(self.failed)} task(s) failed: {detail}")

    def render(self) -> str:
        from ..errors import render_error

        lines = [f"[{self.code}] {len(self.failed)} task(s) failed:"]
        for result in self.failed:
            lines.append(f"  - {result.id}: "
                         f"{render_error(result.error)}")
        return "\n".join(lines)


class _Pending:
    """One task in flight on the pool."""

    __slots__ = ("task", "future", "deadline", "submit_ns", "flow")

    def __init__(self, task: Task, timeout: Optional[float], flow: int):
        self.task = task
        self.future = None
        self.deadline = (time.monotonic() + timeout
                         if timeout is not None else float("inf"))
        self.submit_ns = obs.monotonic_ns()  # obs clock at dispatch
        self.flow = flow                     # links dispatch→worker


class ExecutionEngine:
    """Runs task lists; see the module docstring for semantics."""

    def __init__(self, max_workers: int = 0, *,
                 timeout: Optional[float] = 300.0,
                 store: Optional[ResultStore] = None,
                 stop: Optional[Callable[[], bool]] = None):
        if max_workers < 0:
            raise ValueError("max_workers must be >= 0")
        self.max_workers = max_workers
        self.timeout = timeout
        self.store = store
        self.stop = stop
        self._on_result: Optional[Callable[[Task, TaskResult],
                                           None]] = None
        self._run_id: Optional[str] = None
        self._run_span: Optional[obs.Span] = None
        self._flow_ids = itertools.count(1)

    def _lint_tasks(self, tasks: Sequence[Task]) -> None:
        """Refuse a statically broken task list before any dispatch.

        Duplicate ids, store-key collisions (X001) and output write
        races (X002) are caller bugs, not runtime faults, so they raise
        ``ValueError`` here before any task runs.
        """
        from ..check.diagnostics import ERROR
        from ..check.exec_lint import task_diagnostics

        seen: Set[str] = set()
        for task in tasks:
            if task.id in seen:
                raise ValueError(f"duplicate task id {task.id!r}")
            seen.add(task.id)
        errors = [d for d in task_diagnostics(tasks)
                  if d.severity == ERROR]
        if errors:
            raise ValueError(
                "task list failed pre-dispatch lint: "
                + "; ".join(d.format() for d in errors)
            )

    # -- public API ----------------------------------------------------
    def run(self, tasks: Sequence[Task],
            on_result: Optional[Callable[[Task, TaskResult],
                                         None]] = None
            ) -> Dict[str, TaskResult]:
        """Execute ``tasks`` in order; returns ``{task id: TaskResult}``.

        ``on_result`` runs *in the parent* for every successful result
        (pool, serial, or store hit).

        Raises :class:`ExecError` if any task failed (partial results
        ride on the exception), and
        :class:`~repro.errors.RunInterrupted` when the ``stop`` poll
        flips mid-run (in-flight work is drained and stored first;
        completed results ride on the exception).
        """
        self._lint_tasks(tasks)
        results: Dict[str, TaskResult] = {}
        self._on_result = on_result
        self._run_id = os.urandom(8).hex()
        run_span = obs.span("exec.run", "exec", tasks=len(tasks),
                            max_workers=self.max_workers,
                            run=self._run_id)
        with run_span:
            self._run_span = (run_span
                              if isinstance(run_span, obs.Span) else None)
            try:
                if self.max_workers == 0:
                    self._run_serial(tasks, results)
                else:
                    self._run_pool(tasks, results)
            finally:
                self._on_result = None
                self._run_span = None
        failed = [r for r in results.values() if not r.ok]
        if failed:
            raise ExecError(failed, results)
        return results

    # -- resilience helpers --------------------------------------------
    def _stop_requested(self) -> bool:
        return self.stop is not None and bool(self.stop())

    def _interrupt(self, order: Sequence[Task],
                   results: Dict[str, TaskResult]) -> None:
        """Raise once the drain is complete."""
        _INTERRUPTED.inc()
        pending = tuple(t.id for t in order if t.id not in results)
        raise RunInterrupted(
            f"run interrupted after {len(results)} of {len(order)} "
            "task(s)",
            results=results, pending=pending,
        )

    def _finish(self, task: Task, result: TaskResult,
                results: Dict[str, TaskResult]) -> None:
        """Record ``result``; for a success, the store put (fresh only)
        and then the ``on_result`` callback."""
        results[task.id] = result
        if not result.ok:
            return
        if result.source != "cache" and self.store is not None \
                and task.key is not None:
            self.store.put(task.key, result.value)
        if self._on_result is not None:
            self._on_result(task, result)

    def _settle(self, task: Task,
                results: Dict[str, TaskResult]) -> bool:
        """Resolve ``task`` from the store without running it, if it
        can be.  True when ``results`` now holds it."""
        if self.store is not None and task.key is not None:
            sentinel = object()
            value = self.store.get(task.key, sentinel)
            if value is not sentinel:
                _CACHE_HITS.inc()
                self._record_outcome_span(task, "cache")
                self._finish(task, TaskResult(id=task.id, value=value,
                                              source="cache"), results)
                return True
        return False

    # -- trace propagation ---------------------------------------------
    def _trace_ctx(self, p: "_Pending") -> Dict[str, Any]:
        """The per-dispatch trace context shipped with a pool task."""
        return {
            "enabled": obs.is_enabled(),
            "run_id": self._run_id,
            "parent_span": (self._run_span.id
                            if self._run_span is not None else None),
            "task": p.task.id,
            "flow": p.flow,
        }

    def _record_outcome_span(self, task: Task, outcome: str, *,
                             start_ns: Optional[int] = None,
                             end_ns: Optional[int] = None,
                             error: Optional[BaseException] = None,
                             **extra) -> None:
        """Tag a task decision (cache hit, pool result, timeout) as a
        completed span so it is visible in the trace."""
        if not obs.is_enabled():
            return
        now = obs.monotonic_ns()
        obs.TRACER.record_complete(
            "exec.task", "exec",
            start_ns=now if start_ns is None else start_ns,
            end_ns=now if end_ns is None else end_ns,
            error=type(error).__name__ if error is not None else None,
            parent=self._run_span,
            task=task.id, outcome=outcome, **extra,
        )

    def _absorb_worker_payload(self, p: "_Pending", raw: Dict[str, Any],
                               end_ns: int
                               ) -> Tuple[Any, Optional[BaseException]]:
        """Merge a worker shim payload; returns (value, worker error).

        Spans come home as plain records and are ingested onto the
        worker's own pid track, clamped into the parent-side
        (submit, collect) window so per-task wall times reconcile with
        the parent dispatch span; metric deltas are folded into the
        process registry.
        """
        delta = raw.get("metrics")
        if delta:
            obs.REGISTRY.merge_delta(delta)
        records = raw.get("spans")
        if records and obs.is_enabled():
            obs.TRACER.ingest(
                records, pid=raw.get("pid"),
                window=(p.submit_ns, end_ns), parent=self._run_span,
            )
        return raw.get("value"), raw.get("error")

    def _validated(self, task: Task, value: Any) -> Any:
        """Returns the value or raises on a corrupt payload."""
        if task.validate is not None and not task.validate(value):
            _INVALID.inc()
            raise ValueError(
                f"task {task.id!r} returned a payload its validator "
                "rejected"
            )
        return value

    # -- serial path ---------------------------------------------------
    def _run_one_serial(self, task: Task) -> TaskResult:
        """Execute one task in-process, once."""
        with obs.span("exec.task", "exec", task=task.id,
                      mode="serial") as span:
            try:
                value = self._validated(task, task.fn(*task.args))
            except Exception as error:
                _FAILURES.inc()
                span.set(outcome="failed", error=type(error).__name__)
                return TaskResult(id=task.id, error=error)
            _COMPLETED.inc()
            span.set(outcome="ok")
            return TaskResult(id=task.id, value=value)

    def _run_serial(self, order: Sequence[Task],
                    results: Dict[str, TaskResult]) -> None:
        for task in order:
            if task.id in results:  # finished before a pool fault
                continue
            if self._stop_requested():
                self._interrupt(order, results)
            if not self._settle(task, results):
                self._finish(task, self._run_one_serial(task), results)

    # -- pool path -----------------------------------------------------
    def _run_pool(self, order: Sequence[Task],
                  results: Dict[str, TaskResult]) -> None:
        try:
            # the platform start method (fork on Linux: workers inherit
            # the parent's warmed memo caches) at full priority
            pool = SupervisedPool(self.max_workers, niceness=0,
                                  start_method=None)
        except Exception:
            faulted = True
        else:
            try:
                faulted = self._dispatch(pool, order, results)
            finally:
                pool.close()
        if faulted:
            _DEGRADED.inc()
            self._run_serial(order, results)

    def _dispatch(self, pool: "SupervisedPool", order: Sequence[Task],
                  results: Dict[str, TaskResult]) -> bool:
        """Drive ``order`` on ``pool``; True on the first pool fault,
        which hands every unfinished task to the serial path."""
        waiting: List[Task] = list(order)
        running: List[_Pending] = []
        draining = False
        while waiting or running:
            if not draining and self._stop_requested():
                # graceful drain: stop launching, let in-flight pool
                # jobs finish and be stored, then raise resumable
                draining = True
            if draining and not running:
                self._interrupt(order, results)

            # launch ready tasks (bounded in-flight)
            while (not draining and waiting
                   and len(running) < 2 * self.max_workers):
                task = waiting.pop(0)
                if self._settle(task, results):
                    continue
                p = _Pending(task, self.timeout, next(self._flow_ids))
                try:
                    # every pool task travels through the run_traced
                    # shim with a trace context; the worker sends spans
                    # + metric deltas home alongside the value
                    p.future = pool.submit(
                        run_traced, self._trace_ctx(p), task.fn,
                        task.args)
                except Exception:
                    return True     # the pool refused the task
                _SUBMITTED.inc()
                running.append(p)

            # collect finished / timed-out pool jobs
            faulted = progressed = False
            for p in list(running):
                if p.future.done() or time.monotonic() > p.deadline:
                    running.remove(p)
                    progressed = True
                    faulted |= not self._collect(p, results)
            if faulted:
                return True
            if not progressed:
                time.sleep(_POLL_INTERVAL)
        return False

    def _collect(self, p: _Pending,
                 results: Dict[str, TaskResult]) -> bool:
        """Settle a finished or timed-out pool job; False on a pool
        fault (its worker died, or it hangs there until the pool is
        killed)."""
        from concurrent.futures.process import BrokenProcessPool

        task, end_ns = p.task, obs.monotonic_ns()
        value = error = None
        if not p.future.done():
            _TIMEOUTS.inc()
            outcome = "timeout"
            error = TimeoutError(
                f"task {task.id!r} exceeded {self.timeout:g}s")
        else:
            try:
                raw = p.future.result()
            except BrokenProcessPool:
                return False
            except Exception as exc:
                # the payload could not cross the process boundary
                error = exc
            else:
                value, error = self._absorb_worker_payload(p, raw, end_ns)
                if error is None:
                    try:
                        value = self._validated(task, value)
                    except Exception as invalid:
                        error = invalid
            outcome = "ok" if error is None else "worker_error"
            (_COMPLETED if error is None else _WORKER_ERRORS).inc()
        if error is not None:
            _FAILURES.inc()
        self._record_outcome_span(
            task, outcome, start_ns=p.submit_ns, end_ns=end_ns,
            error=error, mode="pool", flow=p.flow, flow_role="out",
        )
        self._finish(task, TaskResult(id=task.id, value=value,
                                      error=error, source="pool"),
                     results)
        return outcome != "timeout"


def _pool_worker_init(niceness: int) -> None:
    """The one worker bootstrap, for every pool the package starts.

    Shields the worker from group-delivered INT/TERM (the parent
    drains; the pool SIGKILLs workers it wants gone), then renices it
    when asked: the server's cold computes are batch work that must
    not starve its listener threads of CPU.  Must stay module-level so
    the forkserver can pickle it by name.
    """
    from .signals import ignore_termination_in_worker

    ignore_termination_in_worker()
    if niceness > 0 and hasattr(os, "nice"):
        try:
            os.nice(niceness)
        except OSError:  # pragma: no cover - exotic rlimit configs
            pass


def _kill(executor) -> None:
    """SIGKILL an executor's workers and reap them.

    SIGKILL, not SIGTERM: the worker bootstrap ignores SIGTERM, and a
    task blocked in ``sleep`` or in C code cannot be stopped otherwise.
    """
    for process in list((executor._processes or {}).values()):
        process.kill()
    executor.shutdown(wait=True, cancel_futures=True)


class SupervisedPool:
    """The package's one worker-process pool, with crash supervision.

    Both the task-list engine and the server's cold path run on this
    wrapper of :class:`concurrent.futures.ProcessPoolExecutor` (whose
    ``BrokenProcessPool`` cleanly reports a worker death, where
    ``multiprocessing``'s own pool would hang the waiter forever):

    * :meth:`submit` returns a future; :meth:`call` is
      ``submit(...).result()`` with a dead worker surfacing as
      :class:`~repro.errors.WorkerCrashError` (E-EXEC → structured
      503) on the call that was riding it;
    * an executor a worker death broke is discarded and rebuilt behind
      an **exponential backoff gate** (``restart_backoff`` doubling up
      to 5 s; submits landing inside the gate fail fast with E-EXEC
      instead of blocking); a successful :meth:`call` resets the
      backoff.  Every rebuild counts once on ``exec.pool.restarts``.

    The server relies on that recovery.  The engine does not: it
    closes the pool at its first fault and finishes the run serially.

    Workers ignore SIGINT/SIGTERM (:func:`_pool_worker_init`), so
    :meth:`close` SIGKILLs them: no worker outlives its pool.

    ``start_method`` and ``niceness`` differ between the two callers.
    The server keeps the defaults, ``forkserver`` (the fork happens
    from a clean single-threaded helper, never from the lock-holding
    multithreaded server) and +10 (batch computes never starve the
    listener threads).  The engine passes ``None`` (the platform
    default, fork on Linux, so workers inherit the parent's warmed
    caches) and 0.
    """

    def __init__(self, workers: int = 2, *,
                 restart_backoff: float = 0.1,
                 niceness: int = 10,
                 start_method: Optional[str] = "forkserver"):
        import multiprocessing

        self.workers = max(1, int(workers))
        self.niceness = max(0, int(niceness))
        if start_method not in multiprocessing.get_all_start_methods():
            start_method = None  # e.g. no forkserver on Windows
        self.start_method = start_method
        self._base_backoff = float(restart_backoff)
        self._backoff = self._base_backoff
        self._gate_until = 0.0   # monotonic; 0 = no gate
        self._lock = threading.Lock()
        self._executor = None
        self._closed = False
        # force the workers (and the forkserver) to start now, while
        # the parent is still single-threaded
        try:
            self._ensure_executor().submit(os.getpid).result()
        except BaseException:
            self.close()
            raise

    # -- executor lifecycle --------------------------------------------
    def _ensure_executor(self):
        """The live executor, built on demand.

        Raises :class:`~repro.errors.WorkerCrashError` while closed or
        inside the restart backoff gate.
        """
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        from ..errors import WorkerCrashError

        self._reap()
        with self._lock:
            if self._closed:
                raise WorkerCrashError("worker pool is closed")
            if self._executor is not None:
                return self._executor
            remaining = self._gate_until - time.monotonic()
            if remaining > 0:
                raise WorkerCrashError(
                    f"worker pool restarting (backoff "
                    f"{remaining:.2f}s remaining)",
                    hint="retry shortly; the supervisor rebuilds the "
                         "pool after the backoff",
                )
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=multiprocessing.get_context(self.start_method),
                initializer=_pool_worker_init,
                initargs=(self.niceness,))
            return self._executor

    def _reap(self) -> None:
        """Discard an executor a worker death broke; arm the gate."""
        with self._lock:
            executor = self._executor
            if executor is None or not executor._broken:
                return
            self._executor = None
            self._gate_until = time.monotonic() + self._backoff
            self._backoff = min(_MAX_BACKOFF,
                                self._backoff * _BACKOFF_FACTOR)
            _POOL_RESTARTS.inc()
        _kill(executor)

    # -- calls ---------------------------------------------------------
    def submit(self, fn, *args):
        """Schedule ``fn(*args)`` on a worker; returns its future.

        Raises :class:`~repro.errors.WorkerCrashError` when the pool
        is closed, inside its restart backoff, or rejects the call.
        """
        from concurrent.futures.process import BrokenProcessPool

        from ..errors import WorkerCrashError

        executor = self._ensure_executor()
        try:
            return executor.submit(fn, *args)
        except (BrokenProcessPool, RuntimeError) as error:
            self._reap()
            raise WorkerCrashError(
                f"worker pool rejected the call: {error}") from error

    def call(self, fn, *args):
        """Run ``fn(*args)`` on a worker and return its result.

        Raises :class:`~repro.errors.WorkerCrashError` when the worker
        dies mid-call or the pool is inside its restart backoff;
        exceptions *raised by* ``fn`` propagate unchanged (they cross
        the boundary via pickling, which every
        :class:`~repro.errors.ReproError` supports).
        """
        from concurrent.futures.process import BrokenProcessPool

        from ..errors import WorkerCrashError

        try:
            result = self.submit(fn, *args).result()
        except BrokenProcessPool as error:
            self._reap()
            raise WorkerCrashError(
                "a pool worker died mid-computation; the pool is "
                "restarting",
                hint="retry the request; the pool rebuilds after a "
                     "backoff that doubles per crash, up to 5 s",
            ) from error
        with self._lock:
            self._backoff = self._base_backoff
        return result

    # -- introspection / chaos helpers ---------------------------------
    def pids(self):
        """Live worker pids (may be empty mid-restart)."""
        with self._lock:
            executor = self._executor
        if executor is None:
            return []
        processes = getattr(executor, "_processes", None) or {}
        return sorted(processes)

    def kill_worker(self, index: int = 0, sig: int = 9) -> Optional[int]:
        """Send ``sig`` to the ``index``-th worker (chaos harness);
        returns the pid signalled, or None when no worker is up."""
        pids = self.pids()
        if not pids:
            return None
        pid = pids[index % len(pids)]
        try:
            os.kill(pid, sig)
        except OSError:
            return None
        return pid

    def close(self) -> None:
        """Stop the pool, SIGKILLing its workers (they ignore TERM)."""
        with self._lock:
            executor, self._executor = self._executor, None
            self._closed = True
        if executor is not None:
            _kill(executor)
