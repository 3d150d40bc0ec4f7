"""One input's compute failure is answered for that input alone.

Every served compute is deterministic in its content-keyed input, so
a query that fails says nothing about any other query: the server
answers the failure with its own structured code and goes on serving
every other input of the same endpoint.  The only fault backoff left
is the supervised pool's restart gate, which a compute that merely
raises never arms.
"""

from __future__ import annotations

from repro.serve import running_server

from ..helpers import http_post


def test_failing_plans_do_not_shed_a_valid_plan():
    with running_server(store=None) as server:
        # params this large overflow the projected per-sample time, so
        # choose_subbatch fails with E-SOLVE after normalize accepts
        # the body: a compute-time failure, not a binding error
        for _ in range(3):
            status, body = http_post(server.url + "/v1/plan",
                                     {"domain": "speech",
                                      "params": 1e308})
            assert status == 400, body
            assert body["error"]["code"] == "E-SOLVE"
        status, body = http_post(server.url + "/v1/plan",
                                 {"domain": "nmt"})
        assert status == 200, body
        assert body["result"]["domain"] == "nmt"
