"""Store keys: sound under source edits, and cheap (no graph is built).

Every stored result is a pure function of the ``repro`` source tree and
its key's own bindings, so a key must change when the source changes
and must never need a built graph to be computed.
"""

import os
import re
import shutil
import subprocess
import sys

import pytest

from repro.exec.store import source_digest
from repro.exec.tasks import (artifact_config_key, registry_fingerprint,
                              report_exhibit_key)
from repro.models.registry import DOMAINS

from ..helpers import REPO_ROOT

SRC = os.path.join(REPO_ROOT, "src")

_KEY_SCRIPT = ("from repro.exec.tasks import report_exhibit_key; "
               "print(report_exhibit_key('table1'))")


def _child_env(pythonpath, **extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = pythonpath
    env.update(extra)
    return env


def _table1_key(pythonpath, cwd):
    result = subprocess.run([sys.executable, "-c", _KEY_SCRIPT],
                            cwd=str(cwd), env=_child_env(pythonpath),
                            capture_output=True, text=True, check=True)
    return result.stdout.strip()


def _copy_package(dest):
    shutil.copytree(os.path.join(SRC, "repro"),
                    os.path.join(str(dest), "repro"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    return str(dest)


class TestSourceDigest:
    def test_memoized_hex_digest(self):
        digest = source_digest()
        assert len(digest) == 64
        int(digest, 16)
        assert source_digest() is digest

    def test_reads_numpy_version_without_importing_numpy(self):
        import numpy

        from repro.exec.store import _numpy_version

        assert _numpy_version() == numpy.__version__

    def test_numpy_version_is_keyed(self, monkeypatch):
        from repro.exec import store

        digest = source_digest()
        monkeypatch.setattr(store, "_SOURCE_DIGEST", None)
        monkeypatch.setattr(store, "_numpy_version", lambda: "0.0.other")
        assert store.source_digest() != digest

    def test_constant_edit_changes_every_key(self, tmp_path):
        """x1.5 on char_lm's current SOTA (a Table 1 input) must change
        Table 1's key; an unedited copy keys like the source tree."""
        same = _copy_package(tmp_path / "same")
        edited = _copy_package(tmp_path / "edited")
        domains = os.path.join(edited, "repro", "scaling", "domains.py")
        with open(domains) as handle:
            text = handle.read()
        assert text.count("current_sota=1.30,") == 1
        with open(domains, "w") as handle:
            handle.write(text.replace("current_sota=1.30,",
                                      "current_sota=1.30 * 1.5,"))

        original = _table1_key(SRC, tmp_path)
        assert _table1_key(SRC, tmp_path) == original
        assert _table1_key(same, tmp_path) == original
        changed = _table1_key(edited, tmp_path)
        assert _table1_key(edited, tmp_path) == changed
        assert changed != original


class TestKeysBuildNoGraph:
    @pytest.fixture
    def graphs_forbidden(self, monkeypatch):
        """Make every graph build, validation and hash raise, wherever
        a loaded ``repro`` module holds a reference to it."""
        import repro.check.driver  # noqa: F401  (bind before patching)
        import repro.reports  # noqa: F401
        import repro.serve.service  # noqa: F401
        from repro.graph.serialize import structural_hash
        from repro.graph.validate import validate_graph
        from repro.models.registry import build_symbolic

        def forbidden(*args, **kwargs):
            raise AssertionError("a store key built or hashed a graph")

        targets = {id(f) for f in (build_symbolic, structural_hash,
                                   validate_graph)}
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in targets:
                    monkeypatch.setattr(module, attr, forbidden)

    def test_key_builders(self, graphs_forbidden):
        keys = {report_exhibit_key("table1"), report_exhibit_key("fig6"),
                registry_fingerprint(),
                registry_fingerprint(["word_lm", "image"])}
        for domain, entry in DOMAINS.items():
            keys.add(artifact_config_key(domain, entry.sweep_sizes[0]))
        assert len(keys) == 4 + len(DOMAINS)

    @pytest.mark.parametrize("endpoint,params", [
        ("sweep", {"domain": "char_lm", "sizes": [256, 512]}),
        ("plan", {"domain": "speech"}),
        ("lint", {"domains": ["char_lm", "speech"]}),
        ("exhibit", {"name": "table1"}),
    ])
    def test_service_canonical(self, graphs_forbidden, endpoint, params):
        from repro.serve.service import AnalysisService

        clean, key = AnalysisService().canonical(endpoint, params)
        assert clean and len(key) == 64


def test_warm_report_is_byte_identical_to_cold(tmp_path):
    env = _child_env(SRC, REPRO_CACHE_DIR=str(tmp_path / "store"))

    def report():
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", "table1", "--metrics"],
            cwd=str(tmp_path), env=env, capture_output=True, check=True)

    def count(stderr, name):
        match = re.search(rb"^" + re.escape(name.encode())
                          + rb"\s+counter\s+(\d+)$", stderr, re.M)
        return int(match.group(1))

    cold = report()
    warm = report()
    assert count(cold.stderr, "exec.store.miss") == 1
    assert count(warm.stderr, "exec.store.hit") == 1
    assert cold.stdout and warm.stdout == cold.stdout
