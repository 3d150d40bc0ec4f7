"""A store hit loads only what it reads.

A repeat ``repro-report <exhibit>`` is answered from the result store:
it builds a key, unpickles a Table or Figure and renders it.  None of
that needs numpy, the algebra, graphs, models, the analysis layer or
the abstract interpreter, so a warm run must import none of them (the
package roots re-export lazily; DESIGN.md, "Import layering").
"""

from __future__ import annotations

import os
import re
import subprocess
import sys

import pytest

from repro.reports import EXHIBITS

from .helpers import REPO_ROOT

#: modules (and their submodules) a store hit must not import
FORBIDDEN = ("numpy", "repro.symbolic", "repro.graph", "repro.ops",
             "repro.models", "repro.analysis", "repro.planner",
             "repro.hardware", "repro.scaling", "repro.check.absint")

_IMPORTED = re.compile(r"^import time:.*\|\s*(\S+)\s*$", re.M)


def _report(store: str, *args: str, importtime: bool = False):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    env["REPRO_CACHE_DIR"] = store
    flags = ["-X", "importtime"] if importtime else []
    return subprocess.run(
        [sys.executable, *flags, "-m", "repro.cli", *args],
        cwd=REPO_ROOT, env=env, capture_output=True, timeout=600)


@pytest.fixture(scope="module")
def filled_store(tmp_path_factory):
    """A store that a cold ``all`` filled, and that run's stdout."""
    store = str(tmp_path_factory.mktemp("store"))
    cold = _report(store, "all")
    assert cold.returncode == 0, cold.stderr.decode()
    return store, cold.stdout


def test_every_warm_exhibit_is_a_light_store_hit(filled_store):
    store, cold = filled_store
    warm = {}
    for name in sorted(EXHIBITS):
        result = _report(store, name, importtime=True)
        assert result.returncode == 0, result.stderr.decode()
        assert result.stdout, name
        warm[name] = result.stdout
        imported = _IMPORTED.findall(result.stderr.decode())
        heavy = sorted({module for module in imported
                        for root in FORBIDDEN
                        if module == root
                        or module.startswith(root + ".")})
        assert not heavy, f"warm {name} imported {heavy}"
    # ``all`` prints each exhibit's section in sorted order, so the
    # warm sections concatenate to the cold output
    assert b"".join(warm[name] for name in sorted(EXHIBITS)) == cold


def test_package_roots_import_lazily():
    code = ("import sys, repro, repro.check, repro.reports\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] in ('numpy', 'repro')))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == [
        "['repro',", "'repro.check',", "'repro.reports']"]


def test_lazy_reexports_resolve():
    import repro
    from repro import check, reports
    from repro.check.driver import lint_registry
    from repro.reports.figures import fig6

    assert reports.fig6 is fig6
    assert check.lint_registry is lint_registry
    assert repro.symbolic.__name__ == "repro.symbolic"
    assert list(reports.ALL_REPORTS) == list(EXHIBITS)
    assert all(reports.ALL_REPORTS[name] is reports.exhibit_function(name)
               for name in EXHIBITS)
    for package in (repro, check, reports):
        with pytest.raises(AttributeError):
            package.no_such_name
