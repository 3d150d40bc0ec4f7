"""Tests for the X-family task-list lint and its engine wiring."""

import pytest

from repro.check import ERROR, WARNING
from repro.check.exec_lint import GRAPH_LABEL, task_diagnostics
from repro.exec.engine import ExecutionEngine, Task


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

    def test_warning_severity_does_not_block(self, monkeypatch):
        # only error-severity findings refuse the task list
        from repro.check import Diagnostic, exec_lint

        monkeypatch.setattr(
            exec_lint, "task_diagnostics",
            lambda tasks: [Diagnostic("X001", "w", graph=GRAPH_LABEL,
                                      severity=WARNING)])
        results = ExecutionEngine().run(_tasks(("a", "k", ())))
        assert results["a"].value == 2

    def test_static_lint_helper(self):
        tasks = _tasks(("a", "same-key", ()), ("b", "same-key", ()))
        diags = task_diagnostics(tasks)
        assert [d.code for d in diags] == ["X001"]
