"""Tests for the task-list execution engine (repro.exec.engine).

Serial-mode semantics (task-list validation, submitted order, one run
per task, store integration) plus the happy pool path; fault injection against a
live pool is in test_faults.py.
"""

import pytest

from repro.exec.engine import ExecError, ExecutionEngine, Task
from repro.exec.store import ResultStore, content_key
from repro.obs import metrics

from . import _workers


def _value(x):
    return x


class TestDagValidation:
    """Task-list validation, before any dispatch."""

    def test_duplicate_id_rejected(self):
        calls = []

        def record(x):
            calls.append(x)
            return x

        tasks = [Task(id="a", fn=record, args=(1,)),
                 Task(id="b", fn=record, args=(2,)),
                 Task(id="a", fn=record, args=(3,))]
        with pytest.raises(ValueError, match="duplicate task id"):
            ExecutionEngine().run(tasks)
        assert calls == []

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            ExecutionEngine(max_workers=-1)


class TestSerialExecution:
    def test_values_and_provenance(self):
        results = ExecutionEngine().run(
            [Task(id=f"t{i}", fn=_value, args=(i,)) for i in range(5)])
        assert [results[f"t{i}"].value for i in range(5)] == list(range(5))
        assert all(r.ok and r.source == "serial"
                   for r in results.values())

    def test_results_and_callbacks_follow_submitted_order(self):
        ran, seen = [], []

        def record(name):
            ran.append(name)
            return name

        ids = ["c", "a", "b"]
        results = ExecutionEngine().run(
            [Task(id=i, fn=record, args=(i,)) for i in ids],
            on_result=lambda task, result: seen.append(result.value))
        assert ran == ids
        assert seen == ids
        assert list(results) == ids

    def test_permanent_failure_raises_exec_error(self):
        calls = []

        def boom():
            calls.append(1)
            raise RuntimeError("always")

        with pytest.raises(ExecError) as excinfo:
            ExecutionEngine().run([Task(id="bad", fn=boom)])
        err = excinfo.value
        assert [r.id for r in err.failed] == ["bad"]
        assert calls == [1]                  # run once, never retried
        assert "bad" in str(err)

    def test_validator_rejects_payload(self):
        with pytest.raises(ExecError):
            ExecutionEngine().run(
                [Task(id="v", fn=_value, args=(1,),
                      validate=lambda value: value == 2)])


class TestStoreIntegration:
    def test_second_run_is_all_cache_hits(self, tmp_path):
        metrics.clear()
        store = ResultStore(str(tmp_path / "store"))
        tasks = [Task(id=f"t{i}", fn=_value, args=(i,),
                      key=content_key("engine-test", i))
                 for i in range(4)]
        cold = ExecutionEngine(store=store).run(tasks)
        assert all(r.source == "serial" for r in cold.values())

        warm = ExecutionEngine(store=store).run(tasks)
        assert all(r.source == "cache" for r in warm.values())
        assert [warm[f"t{i}"].value for i in range(4)] == list(range(4))
        assert metrics.counter("exec.tasks.cache_hit").value == 4
        assert metrics.counter("exec.store.hit").value == 4
        assert metrics.counter("exec.store.put").value == 4

    def test_keyless_tasks_bypass_store(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        ExecutionEngine(store=store).run(
            [Task(id="nokey", fn=_value, args=(1,))])
        assert store.stats()["entries"] == 0

    def test_failures_are_not_cached(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))

        def boom():
            raise RuntimeError("always")

        with pytest.raises(ExecError):
            ExecutionEngine(store=store).run(
                [Task(id="bad", fn=boom, key=content_key("fail"))])
        assert store.stats()["entries"] == 0


class TestPoolExecution:
    def test_pool_matches_serial(self):
        tasks = lambda: [Task(id=f"t{i}", fn=_workers.double, args=(i,))
                         for i in range(6)]
        serial = ExecutionEngine().run(tasks())
        pooled = ExecutionEngine(max_workers=2).run(tasks())
        assert ({k: r.value for k, r in pooled.items()}
                == {k: r.value for k, r in serial.items()})
        assert all(r.source == "pool" for r in pooled.values())

    def test_pool_with_store_warm_start(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        tasks = lambda: [Task(id=f"t{i}", fn=_workers.double, args=(i,),
                              key=content_key("pool-store", i))
                         for i in range(4)]
        ExecutionEngine(max_workers=2, store=store).run(tasks())
        warm = ExecutionEngine(max_workers=2, store=store).run(tasks())
        assert all(r.source == "cache" for r in warm.values())
