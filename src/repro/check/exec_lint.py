"""X-rules: static lint of an exec task list before dispatch.

The execution engine rejects duplicate task ids up front; everything
else it discovers the expensive way — mid-run, after workers have been
spawned and partial results stored.  Two more task-list defects are
decidable from task metadata alone, so they belong in a
pre-dispatch pass:

* **X001** — two distinct tasks declare the same result-store key.
  The content-addressed store would hand the second task the first
  task's cached value (or the last writer would silently win).
* **X002** — two tasks declare the same output path
  (:attr:`~repro.exec.engine.Task.outputs`): the final file contents
  depend on scheduling order.

:meth:`repro.exec.engine.ExecutionEngine.run` runs this pass first and
raises ``ValueError`` on any error-severity finding — the same
contract as its duplicate-id check.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from .diagnostics import Diagnostic

__all__ = ["task_diagnostics"]

#: pseudo-graph label the findings are anchored to
GRAPH_LABEL = "exec.tasks"


def task_diagnostics(tasks: Sequence) -> List[Diagnostic]:
    """Run the X-family rules over a task list.

    ``tasks`` is any sequence of :class:`~repro.exec.engine.Task`-like
    objects (``id``/``key``/``outputs`` attributes).
    """
    out: List[Diagnostic] = []

    by_key: Dict[str, str] = {}
    for task in tasks:
        key = getattr(task, "key", None)
        if key is None:
            continue
        first = by_key.setdefault(key, task.id)
        if first != task.id:
            out.append(Diagnostic(
                "X001",
                f"tasks {first!r} and {task.id!r} declare the same "
                f"result-store key {key[:16]}…; one would silently "
                "shadow the other in the store",
                graph=GRAPH_LABEL, obj=task.id,
                data={"key": key, "tasks": [first, task.id]},
            ))

    by_path: Dict[str, str] = {}
    for task in tasks:
        for path in getattr(task, "outputs", ()) or ():
            first = by_path.setdefault(path, task.id)
            if first != task.id:
                out.append(Diagnostic(
                    "X002",
                    f"tasks {first!r} and {task.id!r} both declare "
                    f"output path {path!r}; final contents depend on "
                    "scheduling order",
                    graph=GRAPH_LABEL, obj=task.id,
                    data={"path": path, "tasks": [first, task.id]},
                ))
    return out
