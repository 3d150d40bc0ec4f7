"""Tests for the X-family task-list lint and its engine wiring."""

import pytest

from repro.check import ERROR, WARNING
from repro.check.exec_lint import GRAPH_LABEL, task_diagnostics
from repro.exec.engine import ExecutionEngine, Task
from repro.exec.journal import RunJournal


def _ok(n):
    return n * 2


def _tasks(*specs):
    """Build tasks from (id, key, outputs) triples."""
    return [Task(id=tid, fn=_ok, args=(1,), key=key, outputs=outputs)
            for tid, key, outputs in specs]


class TestTaskDiagnostics:
    def test_clean_dag(self):
        tasks = _tasks(("a", "k1", ("a.txt",)),
                       ("b", "k2", ("b.txt",)),
                       ("c", None, ()))
        assert task_diagnostics(tasks) == []

    def test_x001_store_key_collision(self):
        tasks = _tasks(("a", "same-key", ()), ("b", "same-key", ()))
        (d,) = task_diagnostics(tasks)
        assert d.code == "X001"
        assert d.severity == ERROR
        assert d.graph == GRAPH_LABEL
        assert d.data["tasks"] == ["a", "b"]

    def test_x002_output_path_race(self):
        tasks = _tasks(("a", None, ("out.txt",)),
                       ("b", None, ("out.txt",)))
        (d,) = task_diagnostics(tasks)
        assert d.code == "X002"
        assert d.severity == ERROR
        assert d.data["path"] == "out.txt"

    def test_keyless_and_outputless_tasks_never_collide(self):
        tasks = _tasks(("a", None, ()), ("b", None, ()))
        assert task_diagnostics(tasks) == []

    def test_x003_journal_key_drift(self, tmp_path):
        run = str(tmp_path)
        with RunJournal(run) as journal:
            journal.record_ok("a", 2, key="old-key")
        with RunJournal(run, resume=True) as journal:
            tasks = _tasks(("a", "new-key", ()), ("b", "k2", ()))
            (d,) = task_diagnostics(tasks, journal=journal)
            assert d.code == "X003"
            assert d.severity == WARNING
            assert d.data == {"journaled_key": "old-key",
                              "task_key": "new-key"}

    def test_matching_journal_keys_are_clean(self, tmp_path):
        run = str(tmp_path)
        with RunJournal(run) as journal:
            journal.record_ok("a", 2, key="k1")
        with RunJournal(run, resume=True) as journal:
            tasks = _tasks(("a", "k1", ()))
            assert task_diagnostics(tasks, journal=journal) == []


class TestEngineWiring:
    def test_run_raises_on_key_collision_before_dispatch(self):
        engine = ExecutionEngine()
        tasks = _tasks(("a", "same-key", ()), ("b", "same-key", ()))
        with pytest.raises(ValueError, match="pre-dispatch lint"):
            engine.run(tasks)

    def test_run_raises_on_output_race(self):
        engine = ExecutionEngine()
        tasks = _tasks(("a", None, ("out.txt",)),
                       ("b", None, ("out.txt",)))
        with pytest.raises(ValueError, match="X002"):
            engine.run(tasks)

    def test_clean_dag_runs(self):
        engine = ExecutionEngine()
        results = engine.run(_tasks(("a", None, ("a.txt",)),
                                    ("b", None, ("b.txt",))))
        assert results["a"].value == 2
        assert results["b"].value == 2

    def test_warning_severity_does_not_block(self, tmp_path):
        # X003 is a warning: the run proceeds (the journal replay layer
        # already refuses the stale record at its own level)
        run = str(tmp_path)
        with RunJournal(run) as journal:
            journal.record_ok("a", 2, key="old-key")
        with RunJournal(run, resume=True) as journal:
            engine = ExecutionEngine(journal=journal)
            results = engine.run(_tasks(("a", "new-key", ())))
            assert results["a"].value == 2

    def test_static_lint_helper(self):
        tasks = _tasks(("a", "same-key", ()), ("b", "same-key", ()))
        diags = task_diagnostics(tasks)
        assert [d.code for d in diags] == ["X001"]
