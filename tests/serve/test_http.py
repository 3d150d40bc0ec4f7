"""HTTP surface: routing, structured errors, metrics exposition.

Malformed anything must come back as the structured ``ReproError``
JSON envelope — ``{"error": {"code", "message", ...}}`` with HTTP 400
and no traceback — and the observability routes must serve valid
payloads (``/metrics`` parses as OpenMetrics, terminator included).
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.serve import running_server

from ..helpers import http_get, http_post


@pytest.fixture(scope="module")
def server():
    with running_server(store=None) as srv:
        yield srv


def post_raw(server, path, data: bytes):
    request = urllib.request.Request(
        server.url + path, data=data,
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def assert_structured_error(body: bytes, code: str = "E-BIND"):
    payload = json.loads(body)
    assert set(payload) == {"error"}, payload
    assert payload["error"]["code"] == code
    assert "message" in payload["error"]
    text = body.decode("utf-8", "replace")
    assert "Traceback" not in text
    return payload["error"]


def test_invalid_json_body_is_structured_400(server):
    status, body = post_raw(server, "/v1/sweep", b"{not json!")
    assert status == 400
    error = assert_structured_error(body)
    assert "not valid JSON" in error["message"]


def test_empty_body_is_structured_400(server):
    status, body = post_raw(server, "/v1/sweep", b"")
    assert status == 400
    assert_structured_error(body)


def test_non_object_body_is_structured_400(server):
    status, body = post_raw(server, "/v1/sweep", b'[1, 2, 3]')
    assert status == 400
    error = assert_structured_error(body)
    assert "JSON object" in error["message"]


def test_unknown_domain_gets_did_you_mean(server):
    status, body = http_post(server.url + "/v1/sweep",
                             {"domain": "word_ln"})
    assert status == 400
    assert body["error"]["code"] == "E-BIND"
    assert "word_lm" in body["error"]["hint"]


def test_unknown_lint_rule_code_gets_did_you_mean(server):
    for field, code, hint in (("select", "T005", "T004"),
                              ("ignore", "G02", "G002")):
        status, body = http_post(server.url + "/v1/lint",
                                 {"domains": ["image"], field: [code]})
        assert status == 400
        assert body["error"]["code"] == "E-BIND"
        assert code in body["error"]["message"]
        assert hint in body["error"]["hint"]


def test_unknown_field_is_rejected(server):
    status, body = http_post(server.url + "/v1/sweep",
                             {"domain": "word_lm", "sises": [1]})
    assert status == 400
    assert "sises" in body["error"]["message"]
    assert "sizes" in body["error"]["hint"]


def test_invalid_engine_and_sizes(server):
    # the sweep has one evaluation path, so 'engine' is an unknown
    # field: a structured E-BIND naming the allowed fields, not a 500
    for engine in ("compiled", "treewalk"):
        status, body = http_post(
            server.url + "/v1/sweep",
            {"domain": "word_lm", "engine": engine})
        assert status == 400
        assert body["error"]["code"] == "E-BIND"
        message = body["error"]["message"]
        assert "unknown field 'engine'" in message
        assert ("allowed: ['domain', 'include_footprint', 'sizes', "
                "'subbatch']") in message

    status, body = http_post(
        server.url + "/v1/sweep",
        {"domain": "word_lm", "sizes": [0, -3]})
    assert status == 400
    assert "positive" in body["error"]["message"]

    # the first-order fit needs two sweep points; a single size must
    # be rejected at binding time, not surface as an E-INT fit error
    status, body = http_post(
        server.url + "/v1/sweep",
        {"domain": "word_lm", "sizes": [2]})
    assert status == 400
    assert body["error"]["code"] == "E-BIND"
    assert "at least two" in body["error"]["message"]


def test_unknown_exhibit_is_rejected_with_choices(server):
    status, body = http_post(server.url + "/v1/exhibit",
                             {"name": "table99"})
    assert status == 400
    assert "table1" in body["error"]["message"]


def test_unknown_routes_are_structured_404(server):
    status, body = http_get(server.url + "/nope")
    assert status == 404
    assert body["error"]["code"] == "E-BIND"

    status, body = http_post(server.url + "/v1/nope", {})
    assert status == 404
    assert body["error"]["code"] == "E-BIND"


def test_job_submission_without_endpoint_is_400(server):
    status, body = http_post(server.url + "/v1/jobs", {"params": {}})
    assert status == 400
    assert "endpoint" in body["error"]["message"]


def test_unknown_job_id_is_404(server):
    status, body = http_get(server.url + "/v1/jobs/deadbeef")
    assert status == 404
    assert body["error"]["code"] == "E-BIND"


def test_metrics_exposition_parses_as_openmetrics(server):
    # a request first, so serve.http counters exist
    status, _ = http_get(server.url + "/healthz")
    assert status == 200
    with urllib.request.urlopen(server.url + "/metrics",
                                timeout=30) as response:
        assert response.status == 200
        assert "openmetrics-text" in response.headers["Content-Type"]
        text = response.read().decode("utf-8")
    lines = [line for line in text.splitlines() if line]
    assert lines[-1] == "# EOF"
    for line in lines:
        if line.startswith("#"):
            assert line.split()[1] in ("TYPE", "EOF"), line
        else:
            name, value = line.rsplit(" ", 1)
            float(value)
    assert any(line.startswith("repro_serve_http_healthz_requests")
               for line in lines), "per-endpoint counter missing"


def test_stats_snapshot_has_serve_counters(server):
    http_post(server.url + "/v1/lint", {"domains": ["word_lm"]})
    status, body = http_get(server.url + "/v1/stats")
    assert status == 200
    metrics = body["metrics"]
    assert metrics["serve.query.requests"]["value"] >= 1
    assert "serve.coalesce.miss" in metrics
    assert any(name.startswith("serve.http.") for name in metrics)
