"""Task-DAG execution engine and the package's one worker-process pool.

The artifact pipeline fans out as a DAG of picklable tasks (one per
(model, table/figure) unit).  This engine runs that DAG on a
:class:`SupervisedPool` — the same crash-supervised
``concurrent.futures`` pool that serves ``repro-serve``'s cold path, and
the only class in the package that starts worker processes — and layers
the failure policy a batch artifact needs above it:

* **per-task timeouts** — a worker that hangs past its deadline is
  killed (:meth:`SupervisedPool.restart` SIGKILLs the pool; unaffected
  in-flight tasks are resubmitted without penalty);
* **bounded retry with exponential backoff** — a task that raises,
  times out, or returns a payload its validator rejects is retried up
  to ``retries`` times in the pool; the pool's own restart backoff
  after a worker crash is a wait, never a charged attempt;
* **graceful degradation to serial** — after pool retries are
  exhausted the task runs once in-process (the mode the seed shipped),
  so a flaky pool can slow the artifact down but not fail it.  With
  ``max_workers=0`` the engine *is* the serial path: same code, no
  processes.  More than ``max_pool_restarts`` pool rebuilds hand the
  rest of the run to that serial path.

Results can be warm-started through a
:class:`~repro.exec.store.ResultStore`: tasks carrying a ``key`` are
looked up before dispatch and stored after success.  Every decision is
counted in :mod:`repro.obs` metrics (``exec.tasks.*``, ``exec.pool.*``)
and the run is wrapped in spans so ``--trace`` shows the schedule.

**Cross-process observability**: each pool dispatch ships a trace
context (run id, parent span id, enabled flag, flow id) through the
:func:`repro.exec.tasks.run_traced` worker shim.  The worker runs a
buffering tracer plus a delta-capturing metrics registry and returns
completed spans and metric deltas alongside the result; the parent
merges them — worker spans land on their own pid track (clamped into
the parent-side dispatch window), dispatch→worker pairs are linked by
flow ids, and worker counts fold into the process registry.  Cache
hits, journal replays, retries, timeouts, and failures are all
recorded as outcome-tagged ``exec.task`` spans, so a merged
``--trace`` shows the whole schedule including what *didn't* run.

Two resilience hooks make whole runs (not just tasks) fault-tolerant:

* a :class:`~repro.exec.journal.RunJournal` — every task outcome is
  appended to the crash-safe run journal as it happens, and
  journaled-complete tasks are *replayed* (skipped) on a resumed run
  after their payloads and output files re-verify by digest;
* a ``stop`` callable (see
  :class:`~repro.exec.signals.GracefulShutdown`) polled between task
  completions — when it flips, the engine stops launching work, drains
  what is in flight, checkpoints the journal, and raises
  :class:`~repro.errors.RunInterrupted` (the CLIs map it to the
  resumable exit code 3).
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from .. import obs
from ..errors import ReproError, RunInterrupted
from .journal import RunJournal
from .store import ResultStore
from .tasks import run_traced

__all__ = ["Task", "TaskResult", "ExecError", "ExecutionEngine",
           "SupervisedPool", "run_tasks"]

_SUBMITTED = obs.counter("exec.tasks.submitted")
_COMPLETED = obs.counter("exec.tasks.completed")
_CACHE_HITS = obs.counter("exec.tasks.cache_hit")
_RETRIES = obs.counter("exec.tasks.retried")
_TIMEOUTS = obs.counter("exec.tasks.timeout")
_WORKER_ERRORS = obs.counter("exec.tasks.worker_error")
_INVALID = obs.counter("exec.tasks.invalid_payload")
_FALLBACKS = obs.counter("exec.tasks.serial_fallback")
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
    """One unit of the artifact DAG.

    ``fn`` must be picklable (a module-level function) when the engine
    runs with workers; ``validate`` runs in the *parent* on the
    returned payload, so it may be any callable.  ``key`` opts the task
    into the result store.
    """

    id: str
    fn: Callable[..., Any]
    args: Tuple = ()
    kwargs: Mapping[str, Any] = field(default_factory=dict)
    deps: Tuple[str, ...] = ()
    timeout: Optional[float] = None    # None -> engine default
    retries: Optional[int] = None      # None -> engine default
    key: Optional[str] = None          # result-store key (opt-in)
    validate: Optional[Callable[[Any], bool]] = None
    #: paths this task writes (metadata for the pre-dispatch X-lint:
    #: two tasks declaring the same path is a write race)
    outputs: Tuple[str, ...] = ()


@dataclass
class TaskResult:
    """Outcome of one task: value, provenance, and cost."""

    id: str
    value: Any = None
    error: Optional[BaseException] = None
    #: 'cache' | 'pool' | 'serial'
    source: str = "serial"
    attempts: int = 0
    duration: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None


class ExecError(ReproError, RuntimeError):
    """Raised when tasks fail permanently (after retry + fallback).

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
        super().__init__(
            f"{len(self.failed)} task(s) failed permanently: {detail}"
        )

    def render(self) -> str:
        from ..errors import render_error

        lines = [f"[{self.code}] {len(self.failed)} task(s) failed "
                 "permanently:"]
        for result in self.failed:
            lines.append(f"  - {result.id}: "
                         f"{render_error(result.error)}")
        return "\n".join(lines)


class _Pending:
    """Book-keeping for one not-yet-finished task."""

    __slots__ = ("task", "attempts", "not_before", "future",
                 "deadline", "started", "submit_ns", "flow")

    def __init__(self, task: Task):
        self.task = task
        self.attempts = 0
        self.not_before = 0.0       # backoff gate for resubmission
        self.future = None
        self.deadline = float("inf")
        self.started = 0.0
        self.submit_ns = 0          # obs clock at dispatch
        self.flow = None            # flow id linking dispatch→worker


def _toposort(tasks: Sequence[Task]) -> List[Task]:
    """Validate ids/deps and return a dependency-respecting order."""
    by_id: Dict[str, Task] = {}
    for task in tasks:
        if task.id in by_id:
            raise ValueError(f"duplicate task id {task.id!r}")
        by_id[task.id] = task
    for task in tasks:
        for dep in task.deps:
            if dep not in by_id:
                raise ValueError(
                    f"task {task.id!r} depends on unknown task {dep!r}"
                )
    order: List[Task] = []
    state: Dict[str, int] = {}  # 0 visiting / 1 done

    def visit(task: Task, chain: Tuple[str, ...]) -> None:
        mark = state.get(task.id)
        if mark == 1:
            return
        if mark == 0:
            cycle = " -> ".join(chain + (task.id,))
            raise ValueError(f"task dependency cycle: {cycle}")
        state[task.id] = 0
        for dep in task.deps:
            visit(by_id[dep], chain + (task.id,))
        state[task.id] = 1
        order.append(task)

    for task in tasks:
        visit(task, ())
    return order


class ExecutionEngine:
    """Runs task DAGs; see the module docstring for semantics."""

    def __init__(self, max_workers: int = 0, *,
                 timeout: Optional[float] = 300.0,
                 retries: int = 2,
                 backoff: float = 0.05,
                 store: Optional[ResultStore] = None,
                 max_pool_restarts: int = 3,
                 journal: Optional[RunJournal] = None,
                 stop: Optional[Callable[[], bool]] = None):
        if max_workers < 0:
            raise ValueError("max_workers must be >= 0")
        self.max_workers = max_workers
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.store = store
        self.max_pool_restarts = max_pool_restarts
        self.journal = journal
        self.stop = stop
        self._on_result: Optional[Callable[[Task, TaskResult],
                                           Optional[Mapping]]] = None
        self._run_id: Optional[str] = None
        self._run_span: Optional[obs.Span] = None
        self._flow_ids = itertools.count(1)

    @staticmethod
    def lint(tasks: Sequence[Task], *,
             journal: Optional[RunJournal] = None):
        """Static X-lint of a task DAG (no dispatch).

        Returns the :class:`~repro.check.diagnostics.Diagnostic` list:
        store-key collisions (X001), output write races (X002), and
        journal/task key drift (X003).  :meth:`run` calls this before
        dispatching and refuses the DAG on any error-severity finding.
        """
        from ..check.exec_lint import task_diagnostics

        return task_diagnostics(tasks, journal=journal)

    def _lint_tasks(self, tasks: Sequence[Task]) -> None:
        """Refuse statically-broken DAGs before any work is dispatched.

        Same ``ValueError`` contract as ``_toposort``'s duplicate-id /
        unknown-dep validation: these are caller bugs, not runtime
        faults, so they must not burn retries or land in the journal.
        """
        from .. import check

        errors = [d for d in self.lint(tasks, journal=self.journal)
                  if d.severity == check.ERROR]
        if errors:
            raise ValueError(
                "task DAG failed pre-dispatch lint: "
                + "; ".join(d.format() for d in errors)
            )

    # -- public API ----------------------------------------------------
    def run(self, tasks: Sequence[Task],
            on_result: Optional[Callable[[Task, TaskResult],
                                         Optional[Mapping]]] = None
            ) -> Dict[str, TaskResult]:
        """Execute the DAG; returns ``{task id: TaskResult}``.

        ``on_result`` runs *in the parent* for every fresh successful
        result (pool, serial, or store-cache — not journal replays);
        its return value, if any, is a mapping of extra journal
        metadata (e.g. ``{"files": {relpath: digest}}``) folded into
        the task's journal record.

        Raises :class:`ExecError` if any task still fails after retry
        and serial fallback (partial results ride on the exception),
        and :class:`~repro.errors.RunInterrupted` when the ``stop``
        poll flips mid-run (in-flight work is drained and journaled
        first; completed results ride on the exception).
        """
        self._lint_tasks(tasks)
        order = _toposort(tasks)
        results: Dict[str, TaskResult] = {}
        self._on_result = on_result
        self._run_id = os.urandom(8).hex()
        run_span = obs.span("exec.run", "exec", tasks=len(order),
                            max_workers=self.max_workers,
                            run=self._run_id)
        with run_span:
            self._run_span = (run_span
                              if isinstance(run_span, obs.Span) else None)
            try:
                if self.max_workers == 0:
                    self._run_serial(order, results)
                else:
                    self._run_pool(order, results)
            finally:
                self._on_result = None
                self._run_span = None
                if self.journal is not None:
                    self.journal.checkpoint()
        failed = [r for r in results.values() if not r.ok]
        if failed:
            raise ExecError(failed, results)
        return results

    # -- resilience helpers --------------------------------------------
    def _stop_requested(self) -> bool:
        return self.stop is not None and bool(self.stop())

    def _interrupt(self, order: Sequence[Task],
                   results: Dict[str, TaskResult]) -> None:
        """Checkpoint and raise once the drain is complete."""
        _INTERRUPTED.inc()
        if self.journal is not None:
            self.journal.checkpoint()
        pending = tuple(t.id for t in order if t.id not in results)
        raise RunInterrupted(
            f"run interrupted after {len(results)} of {len(order)} "
            "task(s); completed work is journaled",
            results=results, pending=pending,
            hint="rerun with --resume to continue from the journal",
        )

    def _finish(self, task: Task, result: TaskResult) -> None:
        """Parent-side completion hook for a fresh or store-hit result:
        store put (fresh only), ``on_result`` callback, journal append."""
        if not result.ok:
            if self.journal is not None:
                self.journal.record_failed(task.id, result.error)
            return
        if result.source != "cache" and self.store is not None \
                and task.key is not None:
            self.store.put(task.key, result.value)
        extra: Optional[Mapping] = None
        if self._on_result is not None:
            extra = self._on_result(task, result)
        if self.journal is not None:
            files = (extra or {}).get("files") if extra else None
            self.journal.record_ok(task.id, result.value,
                                   key=task.key, files=files)

    def _settle(self, task: Task,
                results: Dict[str, TaskResult]) -> bool:
        """Resolve ``task`` without running it, if it can be: a failed
        dependency, a verified journal replay (the resume skip path),
        or a store hit.  True when ``results`` now holds it."""
        bad = [d for d in task.deps
               if d in results and not results[d].ok]
        if bad:
            _FAILURES.inc()
            results[task.id] = TaskResult(
                id=task.id,
                error=RuntimeError(
                    f"dependency failed: {', '.join(bad)}"
                ),
            )
            return True
        if self.journal is not None:
            value = self.journal.replay(task.id, task.key)
            if not RunJournal.is_missing(value):
                self._record_outcome_span(task, "replayed")
                results[task.id] = TaskResult(id=task.id, value=value,
                                              source="journal")
                return True
        if self.store is not None and task.key is not None:
            sentinel = object()
            value = self.store.get(task.key, sentinel)
            if value is not sentinel:
                _CACHE_HITS.inc()
                self._record_outcome_span(task, "cache")
                results[task.id] = TaskResult(id=task.id, value=value,
                                              source="cache")
                self._finish(task, results[task.id])
                return True
        return False

    # -- shared helpers ------------------------------------------------
    def _effective_retries(self, task: Task) -> int:
        return self.retries if task.retries is None else task.retries

    def _effective_timeout(self, task: Task) -> Optional[float]:
        return self.timeout if task.timeout is None else task.timeout

    # -- trace propagation ---------------------------------------------
    def _trace_ctx(self, p: "_Pending") -> Dict[str, Any]:
        """The per-dispatch trace context shipped with a pool task."""
        return {
            "enabled": obs.is_enabled(),
            "run_id": self._run_id,
            "parent_span": (self._run_span.id
                            if self._run_span is not None else None),
            "task": p.task.id,
            "attempt": p.attempts,
            "flow": p.flow,
        }

    def _record_outcome_span(self, task: Task, outcome: str, *,
                             start_ns: Optional[int] = None,
                             end_ns: Optional[int] = None,
                             error: Optional[BaseException] = None,
                             **extra) -> None:
        """Tag a task decision (cache hit, replay, retry, timeout,
        failure) as a completed span so it is visible in the trace."""
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

    def _run_one_serial(self, task: Task, *,
                        retries: Optional[int] = None,
                        mode: str = "serial") -> TaskResult:
        """Execute one task in-process with bounded retries."""
        if retries is None:
            retries = self._effective_retries(task)
        attempts = 0
        start = time.perf_counter()
        with obs.span("exec.task", "exec", task=task.id,
                      mode=mode) as span:
            while True:
                attempts += 1
                attempt_ns = obs.monotonic_ns()
                try:
                    value = self._validated(
                        task, task.fn(*task.args, **task.kwargs)
                    )
                    _COMPLETED.inc()
                    span.set(outcome="ok", attempts=attempts)
                    return TaskResult(
                        id=task.id, value=value, source="serial",
                        attempts=attempts,
                        duration=time.perf_counter() - start,
                    )
                except Exception as error:
                    if attempts > retries:
                        _FAILURES.inc()
                        span.set(outcome="failed", attempts=attempts,
                                 error=type(error).__name__)
                        return TaskResult(
                            id=task.id, error=error, source="serial",
                            attempts=attempts,
                            duration=time.perf_counter() - start,
                        )
                    _RETRIES.inc()
                    self._record_outcome_span(
                        task, "retried", start_ns=attempt_ns,
                        error=error, mode="serial", attempt=attempts,
                    )
                    time.sleep(self.backoff * (2 ** (attempts - 1)))

    def _run_serial(self, order: Sequence[Task],
                    results: Dict[str, TaskResult]) -> None:
        for task in order:
            if task.id in results:  # finished before a pool degraded
                continue
            if self._stop_requested():
                self._interrupt(order, results)
            if self._settle(task, results):
                continue
            results[task.id] = self._run_one_serial(task)
            self._finish(task, results[task.id])

    # -- pool path -----------------------------------------------------
    def _run_pool(self, order: Sequence[Task],
                  results: Dict[str, TaskResult]) -> None:
        try:
            # the platform start method (fork on Linux: workers inherit
            # the parent's warmed memo caches) at full priority
            pool = SupervisedPool(self.max_workers, niceness=0,
                                  start_method=None)
        except Exception:
            _DEGRADED.inc()
            self._run_serial(order, results)
            return
        try:
            degraded = self._dispatch(pool, order, results)
        finally:
            pool.close()
        if degraded:
            _DEGRADED.inc()
            self._run_serial(order, results)

    def _dispatch(self, pool: "SupervisedPool", order: Sequence[Task],
                  results: Dict[str, TaskResult]) -> bool:
        """Drive the DAG on ``pool``; True once more than
        ``max_pool_restarts`` rebuilds hand the rest to serial."""
        pending: Dict[str, _Pending] = {
            task.id: _Pending(task) for task in order
        }
        waiting: List[str] = [task.id for task in order]  # topo order
        running: List[str] = []
        draining = False

        def finish(p: _Pending, result: TaskResult) -> None:
            results[p.task.id] = result
            del pending[p.task.id]
            self._finish(p.task, result)

        def register_failure(p: _Pending,
                             error: BaseException) -> None:
            p.future = None
            if p.attempts <= self._effective_retries(p.task):
                _RETRIES.inc()
                p.not_before = (
                    time.monotonic()
                    + self.backoff * (2 ** (p.attempts - 1))
                )
                waiting.insert(0, p.task.id)
                return
            # last resort after pool retries: one in-process run
            _FALLBACKS.inc()
            result = self._run_one_serial(p.task, retries=0,
                                          mode="serial-fallback")
            result.attempts += p.attempts
            finish(p, result)

        def submit(p: _Pending) -> None:
            task = p.task
            p.attempts += 1
            p.started = time.monotonic()
            p.submit_ns = obs.monotonic_ns()
            p.flow = next(self._flow_ids)
            timeout = self._effective_timeout(task)
            p.deadline = (p.started + timeout
                          if timeout is not None else float("inf"))
            _SUBMITTED.inc()
            try:
                # every pool task travels through the run_traced shim
                # with a trace context; the worker sends spans + metric
                # deltas home alongside the value
                p.future = pool.submit(
                    run_traced, self._trace_ctx(p), task.fn,
                    task.args, dict(task.kwargs))
            except Exception as error:
                gate = pool.backoff_remaining()
                if gate > 0:
                    # the pool is rebuilding after a worker crash: a
                    # wait for the engine, never a failed attempt
                    p.attempts -= 1
                    p.not_before = time.monotonic() + gate
                    waiting.insert(0, task.id)
                    return
                # dispatch itself failed: same retry/fallback ladder
                # as a worker-side error
                _WORKER_ERRORS.inc()
                register_failure(p, error)
                return
            running.append(task.id)

        def collect(p: _Pending) -> None:
            task = p.task
            end_ns = obs.monotonic_ns()
            try:
                raw = p.future.result()
            except Exception as error:
                # transport-level failure: the payload (and its spans)
                # died with the worker or could not be pickled
                value, worker_error = None, error
            else:
                value, worker_error = self._absorb_worker_payload(
                    p, raw, end_ns)
                if worker_error is None:
                    try:
                        value = self._validated(task, value)
                    except Exception as error:
                        worker_error = error
            if worker_error is not None:
                _WORKER_ERRORS.inc()
                self._record_outcome_span(
                    task, "worker_error", start_ns=p.submit_ns,
                    end_ns=end_ns, error=worker_error, mode="pool",
                    attempt=p.attempts, flow=p.flow, flow_role="out",
                )
                register_failure(p, worker_error)
                return
            _COMPLETED.inc()
            self._record_outcome_span(
                task, "ok", start_ns=p.submit_ns, end_ns=end_ns,
                mode="pool", attempt=p.attempts, flow=p.flow,
                flow_role="out",
            )
            finish(p, TaskResult(
                id=task.id, value=value, source="pool",
                attempts=p.attempts,
                duration=time.monotonic() - p.started,
            ))

        while pending:
            if not draining and self._stop_requested():
                # graceful drain: stop launching, let in-flight pool
                # jobs finish and be journaled, then raise resumable
                draining = True
            if draining and not running:
                self._interrupt(order, results)
            degraded = pool.restarts > self.max_pool_restarts
            if degraded and not running:
                return True

            # promote ready tasks into the pool (bounded in-flight)
            now = time.monotonic()
            if not (draining or degraded or pool.backoff_remaining()):
                for tid in list(waiting):
                    if len(running) >= 2 * self.max_workers:
                        break
                    p = pending[tid]
                    if p.not_before > now or any(
                            d in pending for d in p.task.deps):
                        continue
                    waiting.remove(tid)
                    if self._settle(p.task, results):
                        del pending[tid]
                    else:
                        submit(p)

            if not running:
                if pending:
                    time.sleep(_POLL_INTERVAL)  # backoff-gated tasks
                continue

            # collect finished / timed-out pool jobs
            progressed = False
            for tid in list(running):
                p = pending[tid]
                if p.future.done():
                    progressed = True
                    running.remove(tid)
                    collect(p)
                elif time.monotonic() > p.deadline:
                    progressed = True
                    _TIMEOUTS.inc()
                    # the hung worker must die: kill the whole pool;
                    # innocent in-flight tasks are requeued with no
                    # attempt penalty
                    running.remove(tid)
                    for other in running:
                        innocent = pending[other]
                        innocent.future = None
                        innocent.attempts -= 1
                        waiting.insert(0, other)
                    running.clear()
                    pool.restart()
                    timeout_error = TimeoutError(
                        f"task {tid!r} exceeded "
                        f"{self._effective_timeout(p.task):g}s"
                    )
                    self._record_outcome_span(
                        p.task, "timeout", start_ns=p.submit_ns,
                        error=timeout_error, mode="pool",
                        attempt=p.attempts, flow=p.flow,
                        flow_role="out",
                    )
                    register_failure(p, timeout_error)
                    break
            if not progressed:
                time.sleep(_POLL_INTERVAL)
        return pool.restarts > self.max_pool_restarts


def run_tasks(tasks: Sequence[Task], *, max_workers: int = 0,
              **engine_kwargs: Any) -> Dict[str, TaskResult]:
    """One-shot convenience wrapper around :class:`ExecutionEngine`."""
    return ExecutionEngine(max_workers=max_workers,
                           **engine_kwargs).run(tasks)


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

    Both the task-DAG engine and the server's cold path run on this
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
      instead of blocking, and :meth:`backoff_remaining` says how long
      to wait); a successful :meth:`call` resets the backoff;
    * :meth:`restart` SIGKILLs every worker and rebuilds, which is how
      the engine stops a hung task.  Every rebuild counts once on
      ``exec.pool.restarts`` and on :attr:`restarts`.

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
        self.restarts = 0
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
            self.restarts += 1
            _POOL_RESTARTS.inc()
        _kill(executor)

    def backoff_remaining(self) -> float:
        """Seconds until the pool takes work again (0.0 when it does)."""
        self._reap()
        return max(0.0, self._gate_until - time.monotonic())

    def restart(self) -> None:
        """SIGKILL every worker; the next :meth:`submit` rebuilds.

        Futures still riding the old workers fail; callers requeue
        them.  No backoff gate: a deliberate kill is not a crash.
        """
        with self._lock:
            executor, self._executor = self._executor, None
            self.restarts += 1
            _POOL_RESTARTS.inc()
        if executor is not None:
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
                hint="retry the request; repeated crashes open the "
                     "endpoint's circuit breaker",
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
