"""Differential oracle suite: served JSON == in-process library calls.

Every endpoint's payload must be **value-identical** to the result of
calling the underlying library directly in this process.  The server
runs in-process (:func:`repro.serve.running_server`) but requests go
over real sockets, so the comparison exercises the full normalize →
key → compute → serialize path; the memoized pipeline caches are
shared, so numeric equality is *exact*, and the exhibit check
additionally goes through the golden suite's value-level differ.
"""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.analysis.sweep import sweep_domain
from repro.check import ERROR, INFO, WARNING
from repro.check.driver import lint_registry
from repro.hardware.accelerator import V100_LIKE
from repro.hardware.roofline import roofline_time
from repro.models.registry import get_domain
from repro.planner.subbatch import choose_subbatch
from repro.reports import ALL_REPORTS
from repro.scaling.project import project_all
from repro.serve import running_server, snapshot_exhibit

from ..golden._compare import diff_exhibit
from ..helpers import http_get, http_post

SIZES = [256.0, 512.0, 1024.0]


@pytest.fixture(scope="module")
def server():
    # no store: every query computes (through the shared memo caches),
    # so the oracle and the server read identical objects
    with running_server(store=None) as srv:
        yield srv


def post(server, path, payload):
    status, body = http_post(server.url + path, payload)
    assert status == 200, body
    return body


def test_sweep_rows_match_library(server):
    body = post(server, "/v1/sweep",
                {"domain": "word_lm", "sizes": SIZES})
    oracle = sweep_domain("word_lm", sizes=tuple(SIZES))
    assert body["result"]["rows"] == [asdict(r) for r in oracle.rows]
    assert body["result"]["domain"] == oracle.domain
    assert body["result"]["subbatch"] == oracle.subbatch
    sym = body["result"]["symbolic"]
    assert sym["gamma"] == oracle.symbolic.gamma
    assert sym["lam"] == oracle.symbolic.lam
    assert sym["mu"] == oracle.symbolic.mu


def test_sweep_engine_and_footprint_flags(server):
    """The footprint flag reaches the library; the reply no longer
    names an evaluation engine (the sweep has one)."""
    body = post(server, "/v1/sweep",
                {"domain": "image", "sizes": [1.0, 2.0],
                 "include_footprint": False})
    oracle = sweep_domain("image", sizes=(1.0, 2.0),
                          include_footprint=False)
    assert body["result"]["rows"] == [asdict(r) for r in oracle.rows]
    assert all(row["footprint_bytes"] == 0.0
               for row in body["result"]["rows"])
    assert "engine" not in body["result"]
    assert "engine" not in body["params"]


def test_plan_matches_library(server):
    body = post(server, "/v1/plan", {"domain": "word_lm"})
    params = float(project_all()["word_lm"].target_params)
    model = sweep_domain("word_lm").symbolic
    choice = choose_subbatch(model, params, V100_LIKE)
    result = body["result"]
    assert result["params"] == params
    assert result["choice"] == {
        key: (int(value) if key == "chosen" else float(value))
        for key, value in asdict(choice).items()
    }
    ct = float(model.step_flops(params, choice.chosen))
    at = float(model.step_bytes(params, choice.chosen))
    rt = roofline_time(ct, at, V100_LIKE)
    assert result["step_flops"] == ct
    assert result["step_bytes"] == at
    assert result["step_time_s"] == float(rt.step_time)
    assert result["compute_time_s"] == float(rt.compute_time)
    assert result["memory_time_s"] == float(rt.memory_time)


def test_lint_matches_library(server):
    body = post(server, "/v1/lint", {"domains": ["word_lm", "image"]})
    oracle = lint_registry(["image", "word_lm"])
    expected = {key: [d.to_dict() for d in diagnostics]
                for key, diagnostics in oracle.items()}
    assert body["result"]["graphs"] == expected
    counts = {ERROR: 0, WARNING: 0, INFO: 0}
    for diagnostics in oracle.values():
        for d in diagnostics:
            counts[d.severity] += 1
    assert body["result"]["summary"] == counts


def test_exhibit_matches_golden_differ(server):
    body = post(server, "/v1/exhibit", {"name": "table1"})
    oracle = snapshot_exhibit(ALL_REPORTS["table1"]())
    diffs = diff_exhibit("table1", body["result"], oracle)
    assert not diffs, "\n".join(diffs)
    # exact match too: same process, same memoized inputs
    assert body["result"] == oracle


def test_exhibit_figure_matches(server):
    body = post(server, "/v1/exhibit", {"name": "fig9"})
    oracle = snapshot_exhibit(ALL_REPORTS["fig9"]())
    diffs = diff_exhibit("fig9", body["result"], oracle)
    assert not diffs, "\n".join(diffs)


def test_equivalent_requests_share_one_key(server):
    """Defaults are resolved before keying: an explicit default and an
    omitted field are the same query (and the same cache entry)."""
    explicit = post(server, "/v1/sweep",
                    {"domain": "word_lm", "sizes": SIZES,
                     "subbatch": get_domain("word_lm").subbatch,
                     "include_footprint": True})
    implicit = post(server, "/v1/sweep",
                    {"domain": "word_lm", "sizes": SIZES})
    assert explicit["key"] == implicit["key"]
    assert explicit == implicit


def test_healthz_lists_every_endpoint(server):
    status, body = http_get(server.url + "/healthz")
    assert status == 200
    assert body["status"] == "ok"
    assert body["endpoints"] == ["exhibit", "lint", "plan", "sweep"]
    assert body["pending_jobs"] == 0
