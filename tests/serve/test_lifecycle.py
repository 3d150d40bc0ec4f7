"""Shutdown lifecycle: ``ReproServer.shutdown()`` takes no budget.

It stops the listener, joins the serve thread and closes the worker
pool; nothing is left pending, because finished answers live in the
result store.
"""

from __future__ import annotations

import socket

import pytest

from repro.serve import ReproServer, ServeConfig
from repro.serve.cli import build_parser

from ..helpers import http_get


def test_shutdown_stops_the_listener_and_closes_the_pool():
    server = ReproServer(config=ServeConfig(compute_workers=1))
    server.start_background()
    status, health = http_get(server.url + "/healthz")
    assert status == 200 and health["compute_workers"] == 1
    port = server.port
    assert server.shutdown() is None
    assert not server._thread.is_alive()
    assert server.pool.pids() == []
    with socket.socket() as sock:
        assert sock.connect_ex(("127.0.0.1", port)) != 0


def test_resume_and_job_flags_are_gone():
    parser = build_parser()
    options = {opt for action in parser._actions
               for opt in action.option_strings}
    assert not options & {"--resume", "--run-dir", "--job-workers",
                          "--drain-timeout"}


def test_breaker_flags_are_gone():
    parser = build_parser()
    options = {opt for action in parser._actions
               for opt in action.option_strings}
    assert not options & {"--breaker-threshold", "--breaker-cooldown"}


@pytest.mark.parametrize("flag", ["--rate-limit", "--rate-burst"])
def test_rate_limit_flags_are_gone(flag, capsys):
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args([flag, "1"])
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--compute-workers", "--queue-depth"])
def test_negative_count_is_a_usage_error(flag, capsys):
    # argparse rejects it (exit 2) instead of clamping it to 0
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args([flag, "-3"])
    assert excinfo.value.code == 2
    assert (f"argument {flag}: must be a non-negative integer, "
            f"got '-3'") in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, kind", [
    ("--queue-timeout", "-5", "non-negative"),
    ("--queue-timeout", "nan", "non-negative"),
    ("--header-timeout", "-1", "positive"),
    ("--header-timeout", "0", "positive"),
    ("--body-timeout", "inf", "positive"),
    ("--body-timeout", "soon", "positive"),
])
def test_bad_timeout_is_a_usage_error(flag, value, kind, capsys):
    # argparse rejects it (exit 2) instead of clamping it
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args([flag, value])
    assert excinfo.value.code == 2
    assert (f"argument {flag}: must be a finite {kind} number of "
            f"seconds, got '{value}'") in capsys.readouterr().err


def test_timeouts_parse_as_given():
    args = build_parser().parse_args(
        ["--queue-timeout", "0", "--header-timeout", "0.05",
         "--body-timeout", "2.5"])
    assert (args.queue_timeout, args.header_timeout,
            args.body_timeout) == (0.0, 0.05, 2.5)
