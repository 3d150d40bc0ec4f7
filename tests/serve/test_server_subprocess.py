"""Process-level tests against the real ``repro-serve``.

These tests spawn the actual console-script daemon via
``tests.helpers.ServerFixture`` — graceful SIGTERM, malformed input —
so they carry the ``server`` marker and stay out of tier-1 (run them
with ``pytest tests/serve -m server``).
"""

from __future__ import annotations

import pytest

from ..helpers import ServerFixture

pytestmark = pytest.mark.server


def test_sigterm_drains_and_exits_zero(tmp_path):
    server = ServerFixture(cache_dir=str(tmp_path / "cache"))
    try:
        status, body = server.post("/v1/lint",
                                   {"domains": ["word_lm"]})
        assert status == 200
        status, health = server.get("/healthz")
        assert health["status"] == "ok"
    finally:
        code = server.terminate(timeout=60.0)
    assert code == 0, f"graceful shutdown exited {code}"


def test_malformed_body_against_real_daemon(tmp_path):
    with ServerFixture(cache_dir=str(tmp_path / "cache")) as server:
        status, body = server.post("/v1/sweep", {"domain": "nope"})
        assert status == 400
        assert body["error"]["code"] == "E-BIND"
