"""The daemon loads its compute stack before the first request.

The package roots import lazily, so the stack a handler calls is loaded
only because ``repro.serve.cli``, the daemon's ``__main__``, imports
it.  A forkserver worker imports the parent's ``__main__`` when it
starts, so a compute worker must have the stack before its first task
instead of importing it inside that task's latency.
"""

from __future__ import annotations

import sys

from repro.serve import ServeConfig, running_server

from ..exec import _workers


def test_compute_worker_starts_with_the_compute_stack(monkeypatch):
    import repro.serve.cli as daemon_main

    # the daemon runs as ``python -m repro.serve.cli``
    monkeypatch.setitem(sys.modules, "__main__", daemon_main)
    with running_server(config=ServeConfig(compute_workers=1)) as server:
        loaded = server.pool.call(_workers.loaded_modules)
    assert "repro.analysis.sweep" in loaded
    assert "repro.reports.figures" in loaded
