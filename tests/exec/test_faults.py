"""Fault injection against a live process pool.

Worker functions (tests/exec/_workers.py) misbehave only when
``os.getpid()`` differs from the pid that imported the module, so the
same call that raises/hangs/corrupts in a pool worker succeeds when the
engine's serial fallback runs it in the parent — proving degradation
rescues the batch rather than merely retrying the same failure.
"""

import multiprocessing
import time

import pytest

from repro.errors import RunInterrupted
from repro.exec.engine import (ExecError, ExecutionEngine, SupervisedPool,
                               Task, run_tasks)
from repro.obs import metrics

from . import _workers


class TestWorkerRaises:
    def test_retried_then_rescued_serially(self):
        metrics.clear()
        results = run_tasks(
            [Task(id="r", fn=_workers.raise_in_worker, args=(21,))],
            max_workers=2, retries=1, backoff=0.001)
        r = results["r"]
        assert r.ok and r.value == 42
        assert r.source == "serial"          # fallback, not the pool
        assert r.attempts == 3               # 2 pool tries + 1 serial
        assert metrics.counter("exec.tasks.worker_error").value == 2
        assert metrics.counter("exec.tasks.retried").value == 1
        assert metrics.counter("exec.tasks.serial_fallback").value == 1
        assert metrics.counter("exec.tasks.completed").value == 1

    def test_transient_failure_recovers_in_pool(self, tmp_path):
        counter_path = str(tmp_path / "attempts")
        results = run_tasks(
            [Task(id="f", fn=_workers.fail_first_n,
                  args=(counter_path, 1, 5))],
            max_workers=2, retries=2, backoff=0.001)
        assert results["f"].value == 10
        assert results["f"].source == "pool"  # retry succeeded in-pool
        assert results["f"].attempts == 2


class TestWorkerHangs:
    def test_timeout_restarts_pool_then_falls_back(self):
        metrics.clear()
        results = run_tasks(
            [Task(id="h", fn=_workers.hang_in_worker, args=(5,),
                  timeout=0.4)],
            max_workers=2, retries=1, backoff=0.001,
            max_pool_restarts=3)
        r = results["h"]
        assert r.ok and r.value == 10 and r.source == "serial"
        assert metrics.counter("exec.tasks.timeout").value == 2
        assert metrics.counter("exec.pool.restarts").value == 2
        assert metrics.counter("exec.tasks.serial_fallback").value == 1

    def test_innocent_inflight_tasks_survive_pool_restart(self):
        # one hanging task next to well-behaved ones: the pool restart
        # the hang forces must not fail (or double-count) the others
        tasks = [Task(id="h", fn=_workers.hang_in_worker, args=(1,),
                      timeout=0.4, retries=0)]
        tasks += [Task(id=f"ok{i}", fn=_workers.double, args=(i,))
                  for i in range(4)]
        results = run_tasks(tasks, max_workers=2, backoff=0.001)
        assert results["h"].value == 2       # serial fallback
        for i in range(4):
            r = results[f"ok{i}"]
            assert r.ok and r.value == i * 2

    def test_exhausted_restarts_degrade_whole_run_to_serial(self):
        metrics.clear()
        tasks = [Task(id="h", fn=_workers.hang_in_worker, args=(3,),
                      timeout=0.3, retries=0)]
        tasks += [Task(id=f"ok{i}", fn=_workers.double, args=(i,))
                  for i in range(3)]
        results = run_tasks(tasks, max_workers=2, backoff=0.001,
                            max_pool_restarts=0)
        assert all(r.ok for r in results.values())
        assert results["h"].value == 6
        assert metrics.counter("exec.engine.degraded").value >= 1


class TestCorruptPayload:
    def test_validator_triggers_retry_then_fallback(self):
        metrics.clear()
        results = run_tasks(
            [Task(id="c", fn=_workers.corrupt_in_worker, args=(4,),
                  validate=_workers.payload_ok)],
            max_workers=2, retries=1, backoff=0.001)
        r = results["c"]
        assert r.ok and r.value == {"value": 8}
        assert r.source == "serial"
        assert metrics.counter("exec.tasks.invalid_payload").value == 2
        assert metrics.counter("exec.tasks.serial_fallback").value == 1


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
    run_tasks([Task(id="h", fn=_workers.hang_in_worker, args=(5,),
                    timeout=0.4)],
              max_workers=2, retries=1, backoff=0.001)


def _failing_run():
    with pytest.raises(ExecError):
        run_tasks([Task(id="bad", fn=int, args=("x",), retries=0)],
                  max_workers=2)


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
