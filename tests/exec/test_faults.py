"""Fault injection against a live process pool.

Worker functions (tests/exec/_workers.py) misbehave only when
``os.getpid()`` differs from the pid that imported the module, so the
same call that raises/hangs/corrupts/dies in a pool worker succeeds in
the parent.  Every task is deterministic, so the engine runs it once:
a task that fails in a worker fails the run (a success here would mean
it was rerun), while a fault of the pool itself — a worker death, a
refused submit, a hang — hands the rest of the run to the serial path.
"""

import multiprocessing
import time

import pytest

from repro.errors import RunInterrupted
from repro.exec.engine import (ExecError, ExecutionEngine, SupervisedPool,
                               Task)
from repro.obs import metrics

from . import _workers


def _neighbours(n):
    return [Task(id=f"ok{i}", fn=_workers.double, args=(i,))
            for i in range(n)]


def _assert_neighbours(results, n, source=None):
    for i in range(n):
        r = results[f"ok{i}"]
        assert r.ok and r.value == i * 2
        if source is not None:
            assert r.source == source


class TestOneRun:
    @pytest.mark.parametrize("max_workers", [0, 2])
    def test_failing_task_runs_exactly_once(self, tmp_path, max_workers):
        counter_path = tmp_path / "calls"
        with pytest.raises(ExecError) as excinfo:
            ExecutionEngine(max_workers=max_workers).run(
                [Task(id="bind", fn=_workers.count_calls_then_bind_error,
                      args=(str(counter_path),))])
        assert excinfo.value.results["bind"].error.code == "E-BIND"
        assert counter_path.read_text() == "1"


class TestWorkerRaises:
    def test_raise_fails_the_run_after_one_call(self):
        metrics.clear()
        tasks = [Task(id="r", fn=_workers.raise_in_worker, args=(21,))]
        with pytest.raises(ExecError) as excinfo:
            ExecutionEngine(max_workers=2).run(tasks + _neighbours(3))
        error = excinfo.value
        assert [r.id for r in error.failed] == ["r"]
        r = error.results["r"]
        assert r.source == "pool"            # not rerun in the parent
        assert "injected worker failure" in str(r.error)
        # a task failure is not a pool fault: the rest stay pooled
        _assert_neighbours(error.results, 3, source="pool")
        assert metrics.counter("exec.tasks.worker_error").value == 1
        assert metrics.counter("exec.tasks.failed").value == 1
        assert metrics.counter("exec.tasks.completed").value == 3
        assert metrics.counter("exec.engine.degraded").value == 0


class TestCorruptPayload:
    def test_validator_rejection_fails_after_one_call(self):
        metrics.clear()
        with pytest.raises(ExecError) as excinfo:
            ExecutionEngine(max_workers=2).run(
                [Task(id="c", fn=_workers.corrupt_in_worker, args=(4,),
                      validate=_workers.payload_ok)])
        r = excinfo.value.results["c"]
        assert r.source == "pool"
        assert isinstance(r.error, ValueError)
        assert "validator rejected" in str(r.error)
        assert metrics.counter("exec.tasks.invalid_payload").value == 1
        assert metrics.counter("exec.tasks.failed").value == 1


class TestWorkerDies:
    def test_worker_death_hands_the_run_to_serial(self):
        metrics.clear()
        tasks = [Task(id="d", fn=_workers.die_in_worker, args=(3,))]
        results = ExecutionEngine(max_workers=2).run(
            tasks + _neighbours(3))
        r = results["d"]
        assert r.ok and r.value == 6 and r.source == "serial"
        _assert_neighbours(results, 3)
        assert metrics.counter("exec.engine.degraded").value == 1
        assert metrics.counter("exec.tasks.failed").value == 0


class TestWorkerHangs:
    def test_timeout_fails_the_task_without_a_rerun(self):
        metrics.clear()
        with pytest.raises(ExecError) as excinfo:
            ExecutionEngine(max_workers=2, timeout=0.4).run(
                [Task(id="h", fn=_workers.hang_in_worker, args=(5,))])
        r = excinfo.value.results["h"]
        # instant in the parent, so a rerun would have succeeded
        assert isinstance(r.error, TimeoutError)
        assert r.source == "pool"
        assert metrics.counter("exec.tasks.timeout").value == 1
        assert metrics.counter("exec.engine.degraded").value == 1
        assert metrics.counter("exec.pool.restarts").value == 0

    def test_innocent_neighbours_finish_serially(self):
        tasks = [Task(id="h", fn=_workers.hang_in_worker, args=(1,))]
        with pytest.raises(ExecError) as excinfo:
            ExecutionEngine(max_workers=2, timeout=0.4).run(
                tasks + _neighbours(4))
        error = excinfo.value
        assert [r.id for r in error.failed] == ["h"]
        assert isinstance(error.results["h"].error, TimeoutError)
        _assert_neighbours(error.results, 4)


class TestArtifactUnderFaults:
    def test_artifact_completes_when_pool_is_unusable(self, tmp_path,
                                                      monkeypatch):
        """End-to-end: generate_results finishes (and matches the
        serial bytes) even when every pool dispatch raises."""
        from repro import artifact

        def poisoned_submit(self, fn, *args):
            raise RuntimeError("injected dispatch failure")

        serial_dir = tmp_path / "serial"
        faulty_dir = tmp_path / "faulty"
        configs = (("word_lm", 1024), ("image", 1))
        artifact.generate_results(str(serial_dir), configs)

        monkeypatch.setattr(SupervisedPool, "submit", poisoned_submit)
        artifact.generate_results(str(faulty_dir), configs,
                                  max_workers=2)

        for name in sorted(p.name for p in serial_dir.iterdir()):
            with open(serial_dir / name) as a, \
                    open(faulty_dir / name) as b:
                assert a.read() == b.read(), name


def _timeout_fallback_run():
    # the hang times out; its neighbour falls back to the serial path
    with pytest.raises(ExecError):
        ExecutionEngine(max_workers=2, timeout=0.4).run(
            [Task(id="h", fn=_workers.hang_in_worker, args=(5,))]
            + _neighbours(1))


def _failing_run():
    with pytest.raises(ExecError):
        ExecutionEngine(max_workers=2).run(
            [Task(id="bad", fn=int, args=("x",))])


def _interrupted_run():
    done = []
    engine = ExecutionEngine(max_workers=2, stop=lambda: bool(done))
    tasks = [Task(id=f"t{i}", fn=_workers.double, args=(i,))
             for i in range(6)]
    with pytest.raises(RunInterrupted):
        engine.run(tasks, on_result=lambda task, result: done.append(1))


class TestNoWorkerOutlivesARun:
    """Workers ignore SIGTERM, so only a SIGKILL cleanup passes: waiting
    for the hung worker instead would take its full 30 s sleep."""

    @pytest.mark.parametrize("run", [_timeout_fallback_run, _failing_run,
                                     _interrupted_run])
    def test_no_live_children_after_run(self, run):
        start = time.monotonic()
        run()
        assert multiprocessing.active_children() == []
        assert time.monotonic() - start < 15.0
