"""``repro-serve`` — run the analysis daemon.

::

    repro-serve [--host H] [--port P] [--compute-workers N]
                [--queue-depth N] [--queue-timeout S]
                [--header-timeout S] [--body-timeout S]
                [--chaos-plan PATH]
                [--no-cache] [--cache-dir PATH] [--debug]

Prints one JSON announce line on stdout once the socket is bound
(``{"event": "serving", "url": ..., "port": ..., "pid": ...}``) — test
fixtures and scripts read it to learn the ephemeral port — then serves
until the first SIGTERM/SIGINT.  The signal shuts the server down
(stop accepting, join the serve thread, close the worker pool); a
second signal hard-aborts.

Exit codes follow the repo-wide convention:

* ``0`` — clean shutdown;
* ``1`` — startup or configuration error (rendered, no traceback).

Finished answers live in the result store, so a restarted server
answers a repeated query from it; there is no exit code 3.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from typing import List, Optional

from .. import obs
from ..artifact import _worker_count, run_cli, store_from_args
from ..errors import ReproIOError
from ..exec.signals import GracefulShutdown
from ..exec.store import default_cache_dir
# Every exhibit generator, and with them the compute stack the handlers
# call (sweeps, planners, projections, models): the daemon loads it at
# start-up, not on its first request, and so does each compute worker,
# because a forkserver worker imports the daemon's ``__main__`` (this
# module) when it starts.
from ..reports import ALL_REPORTS  # noqa: F401
from .chaos import ChaosController, ChaosPlan
from .server import ReproServer, ServeConfig

__all__ = ["main", "build_parser"]


def _seconds(text: str, *, positive: bool) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value) or value < 0 or (positive and value == 0):
        kind = "positive" if positive else "non-negative"
        raise argparse.ArgumentTypeError(
            f"must be a finite {kind} number of seconds, got {text!r}")
    return value


def _wait_seconds(text: str) -> float:
    """argparse type of ``--queue-timeout``: 0 sheds at once."""
    return _seconds(text, positive=False)


def _timeout_seconds(text: str) -> float:
    """argparse type of the socket and body budgets, which must
    leave a client some time."""
    return _seconds(text, positive=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve the analysis pipeline (sweeps, plans, "
                    "lint, exhibits) as JSON over HTTP from one "
                    "long-running process.",
    )
    parser.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default: 127.0.0.1)")
    parser.add_argument(
        "--port", type=int, default=0, metavar="P",
        help="listen port (default: 0 = ephemeral; the announce "
             "line on stdout carries the chosen port)")
    group = parser.add_argument_group(
        "overload resilience",
        "admission control, deadlines, and the chaos harness (see "
        "the README operations runbook)")
    group.add_argument(
        "--compute-workers", type=_worker_count, default=0,
        metavar="N",
        help="run cold computes on N supervised worker processes so "
             "a crashing compute cannot take down the listener; N "
             "computes then run at once, else one (default: 0 = "
             "in-process)")
    group.add_argument(
        "--queue-depth", type=_worker_count, default=8, metavar="N",
        help="cold computes that may wait for the compute gate; "
             "beyond them requests shed E-BUSY 429 (default: 8)")
    group.add_argument(
        "--queue-timeout", type=_wait_seconds, default=30.0, metavar="S",
        help="max seconds a request waits for the compute gate "
             "(default: 30)")
    group.add_argument(
        "--header-timeout", type=_timeout_seconds, default=30.0, metavar="S",
        help="socket read timeout for request headers / keep-alive "
             "idles — the slow-loris bound (default: 30)")
    group.add_argument(
        "--body-timeout", type=_timeout_seconds, default=10.0, metavar="S",
        help="wall-clock budget for reading one request body "
             "(default: 10)")
    group.add_argument(
        "--chaos-plan", metavar="PATH", default=None,
        help="inject faults from a seeded JSON plan (latency, "
             "errors, worker kills, store corruption) — the "
             "resilience suite's harness; never use in production")
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk result store (always recompute)")
    parser.add_argument(
        "--cache-dir", metavar="PATH", default=None,
        help="result-store directory (default: $REPRO_CACHE_DIR or "
             "~/.cache/repro)")
    parser.add_argument(
        "--debug", action="store_true",
        help="show raw tracebacks instead of one-paragraph "
             "E-* error summaries")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    recorder = obs.RunRecorder(
        "repro-serve",
        config={"host": args.host, "port": args.port,
                "cache": not args.no_cache,
                "compute_workers": args.compute_workers,
                "chaos_plan": args.chaos_plan},
    )
    config = ServeConfig(
        queue_depth=args.queue_depth,
        queue_timeout=args.queue_timeout,
        compute_workers=args.compute_workers,
        header_timeout=args.header_timeout,
        body_timeout=args.body_timeout,
    )
    def body() -> int:
        # inside body() so a bad plan renders as E-BIND, not a traceback
        chaos = None
        if args.chaos_plan:
            chaos = ChaosController(
                ChaosPlan.from_file(args.chaos_plan))
        try:
            server = ReproServer(
                args.host, args.port,
                store=store_from_args(args),
                config=config, chaos=chaos,
            )
        except OSError as error:
            raise ReproIOError(
                f"cannot bind {args.host}:{args.port}: {error}",
                hint="pick another --port (or 0 for an ephemeral "
                     "one)") from error
        server.start_background()
        print(json.dumps({
            "event": "serving",
            "url": server.url,
            "port": server.port,
            "pid": os.getpid(),
            "cache_dir": (None if args.no_cache else
                          args.cache_dir or default_cache_dir()),
        }, sort_keys=True), flush=True)
        with GracefulShutdown() as stop:
            while not stop.stop_requested():
                time.sleep(0.1)
        server.shutdown()
        return 0

    return run_cli(body, debug=args.debug, recorder=recorder)


if __name__ == "__main__":  # pragma: no cover - console-script shim
    sys.exit(main())
