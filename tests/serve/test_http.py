"""HTTP surface: routing, structured errors, metrics exposition.

Malformed anything must come back as the structured ``ReproError``
JSON envelope — ``{"error": {"code", "message", ...}}`` with HTTP 400
and no traceback — and the observability routes must serve valid
payloads (``/metrics`` parses as OpenMetrics, terminator included).
"""

from __future__ import annotations

import http.client
import json
import socket
import urllib.error
import urllib.request

import pytest

from repro import obs
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


@pytest.mark.parametrize("length", ["abc", "-5", "1.5"])
def test_malformed_content_length_is_structured_400(server, length):
    unstructured = obs.counter("serve.http.unstructured_errors").value
    body = b'{"domain": "word_lm"}'
    request = (f"POST /v1/sweep HTTP/1.1\r\nHost: 127.0.0.1\r\n"
               f"Content-Type: application/json\r\n"
               f"Content-Length: {length}\r\n\r\n").encode() + body
    with socket.create_connection(("127.0.0.1", server.port),
                                  timeout=30) as sock:
        sock.sendall(request)
        chunks = []
        while True:  # the server closes: the body is never read
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, payload = b"".join(chunks).partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    assert lines[0].split()[1] == "400", lines[0]
    assert "Connection: close" in lines[1:]
    error = assert_structured_error(payload)
    assert "Content-Length" in error["message"]
    assert repr(length) in error["message"]
    assert obs.counter("serve.http.unstructured_errors").value \
        == unstructured


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


def test_lint_filter_that_runs_nothing_is_rejected(server):
    # X runs only in the exec engine, M only on a full-registry lint:
    # a 200 with no findings would report a check that never ran
    for body, reason in (
            ({"domains": ["image"], "select": ["X"]}, "exec engine"),
            ({"domains": ["image"], "select": ["M"]}, "full-registry"),
            ({"select": ["S"], "ignore": ["S"]}, "ignore drops")):
        status, answer = http_post(server.url + "/v1/lint", body)
        assert status == 400
        assert answer["error"]["code"] == "E-BIND"
        assert "leaves nothing to check" in answer["error"]["message"]
        assert reason in answer["error"]["message"]


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


def test_plan_max_subbatch_below_one_is_rejected(server):
    # choose_subbatch refuses a cap with no grid point under it, or one
    # past the bracket its solver proofs cover: a malformed request,
    # not a solver failure
    for cap in (1, 31, 2 ** 18 + 1):
        status, body = http_post(server.url + "/v1/plan",
                                 {"domain": "word_lm",
                                  "max_subbatch": cap})
        assert status == 400, (cap, body)
        assert body["error"]["code"] == "E-BIND"
        assert "'max_subbatch'" in body["error"]["message"]
        assert "[32, 262144]" in body["error"]["message"]


def test_plan_under_a_binding_cap_is_flagged(server):
    status, body = http_post(server.url + "/v1/plan",
                             {"domain": "word_lm", "max_subbatch": 40})
    assert status == 200, body
    assert body["result"]["choice"]["chosen"] == 32
    assert body["result"]["choice"]["capped"] is True
    status, body = http_post(server.url + "/v1/plan",
                             {"domain": "word_lm"})
    assert status == 200, body
    assert body["result"]["choice"]["capped"] is False


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


def test_jobs_routes_are_structured_404(server):
    # clients of the removed async-job routes get the route list
    status, body = http_post(server.url + "/v1/jobs",
                             {"endpoint": "sweep", "params": {}})
    assert status == 404
    assert body["error"]["code"] == "E-BIND"
    assert "/v1/jobs" not in body["error"]["hint"]
    assert "/v1/{exhibit, lint, plan, sweep}" in body["error"]["hint"]

    status, body = http_get(server.url + "/v1/jobs/deadbeef")
    assert status == 404
    assert body["error"]["code"] == "E-BIND"
    assert "/v1/jobs" not in body["error"]["hint"]


def _exchange(conn, method, path, payload=None):
    body = None if payload is None else json.dumps(payload).encode()
    headers = {} if body is None else {"Content-Type":
                                       "application/json"}
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    return response.status, response.getheader("Content-Type"), \
        response.read()


@pytest.mark.parametrize("path", [
    "/v1/nope",
    "/v1/sweep?deadline_ms=abc",
], ids=["unknown-route", "bad-deadline"])
def test_refusal_before_the_body_keeps_the_connection_usable(path):
    # a refusal sent before the body is read must not leave the body
    # on the wire, where it would be parsed as the next request
    with running_server(store=None) as srv:
        conn = http.client.HTTPConnection("127.0.0.1", srv.port,
                                          timeout=30)
        try:
            status, ctype, body = _exchange(
                conn, "POST", path, {"domain": "word_lm"})
            assert status in (400, 404)
            assert_structured_error(body, "E-BIND")
            status, ctype, body = _exchange(conn, "GET", "/healthz")
            assert status == 200, body
            assert ctype == "application/json"
            assert json.loads(body)["status"] == "ok"
        finally:
            conn.close()


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
