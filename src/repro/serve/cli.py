"""``repro-serve`` — run the analysis daemon.

::

    repro-serve [--host H] [--port P] [--job-workers N]
                [--run-dir DIR] [--resume] [--drain-timeout S]
                [--compute-workers N]
                [--queue-depth N] [--queue-timeout S]
                [--rate-limit R] [--rate-burst N]
                [--breaker-threshold N] [--breaker-cooldown S]
                [--header-timeout S] [--body-timeout S]
                [--chaos-plan PATH]
                [--no-cache] [--cache-dir PATH] [--debug]

Prints one JSON announce line on stdout once the socket is bound
(``{"event": "serving", "url": ..., "port": ..., "pid": ...}``) — test
fixtures and scripts read it to learn the ephemeral port — then serves
until the first SIGTERM/SIGINT.  The signal starts a graceful drain
(stop accepting, finish queued jobs, checkpoint the journal); a second
signal hard-aborts.

Exit codes follow the repo-wide convention:

* ``0`` — clean shutdown, no jobs left behind;
* ``3`` (``EXIT_RESUMABLE``) — jobs were still pending at drain
  deadline; restart with ``--run-dir DIR --resume`` to pick them up;
* ``1`` — startup or configuration error (rendered, no traceback).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List, Optional

from .. import obs
from ..artifact import run_cli, store_from_args
from ..errors import EXIT_RESUMABLE, ReproIOError
from ..exec.signals import GracefulShutdown
from ..exec.store import default_cache_dir
from .chaos import ChaosController, ChaosPlan
from .server import ReproServer, ServeConfig

__all__ = ["main", "build_parser"]


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
    parser.add_argument(
        "--job-workers", type=int, default=2, metavar="N",
        help="async-job worker threads (default: 2)")
    parser.add_argument(
        "--run-dir", metavar="DIR", default=None,
        help="journal async jobs under DIR/.runstate so a restart "
             "with --resume finishes them (default: jobs are "
             "in-memory only)")
    parser.add_argument(
        "--resume", action="store_true",
        help="recover journaled jobs from --run-dir: completed "
             "results replay verbatim, unfinished jobs re-enter "
             "the queue")
    parser.add_argument(
        "--drain-timeout", type=float, default=30.0, metavar="S",
        help="seconds to wait for queued jobs on shutdown "
             "(default: 30)")
    group = parser.add_argument_group(
        "overload resilience",
        "admission control, deadlines, breakers, and the chaos "
        "harness (see the README operations runbook)")
    group.add_argument(
        "--compute-workers", type=int, default=0, metavar="N",
        help="run cold computes on N supervised worker processes so "
             "a crashing compute cannot take down the listener; N "
             "computes then run at once, else one (default: 0 = "
             "in-process)")
    group.add_argument(
        "--queue-depth", type=int, default=8, metavar="N",
        help="cold computes that may wait for the compute gate; "
             "beyond them requests shed E-BUSY 429 (default: 8)")
    group.add_argument(
        "--queue-timeout", type=float, default=30.0, metavar="S",
        help="max seconds a request waits for the compute gate "
             "(default: 30)")
    group.add_argument(
        "--rate-limit", type=float, default=0.0, metavar="R",
        help="per-connection token-bucket rate, requests/second "
             "(default: 0 = unlimited)")
    group.add_argument(
        "--rate-burst", type=int, default=20, metavar="N",
        help="per-connection burst allowance (default: 20)")
    group.add_argument(
        "--breaker-threshold", type=int, default=3, metavar="N",
        help="consecutive compute failures that open an endpoint's "
             "circuit breaker (default: 3)")
    group.add_argument(
        "--breaker-cooldown", type=float, default=1.0, metavar="S",
        help="seconds an open breaker sheds before its half-open "
             "probe; doubles per re-open up to 30s (default: 1)")
    group.add_argument(
        "--header-timeout", type=float, default=30.0, metavar="S",
        help="socket read timeout for request headers / keep-alive "
             "idles — the slow-loris bound (default: 30)")
    group.add_argument(
        "--body-timeout", type=float, default=10.0, metavar="S",
        help="wall-clock budget for reading one request body "
             "(default: 10)")
    group.add_argument(
        "--chaos-plan", metavar="PATH", default=None,
        help="inject faults from a seeded JSON plan (latency, "
             "worker kills, store corruption, breaker flips) — the "
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
    if args.resume and not args.run_dir:
        build_parser().error("--resume requires --run-dir")
    recorder = obs.RunRecorder(
        "repro-serve",
        config={"host": args.host, "port": args.port,
                "job_workers": args.job_workers,
                "run_dir": args.run_dir, "resume": args.resume,
                "cache": not args.no_cache,
                "compute_workers": args.compute_workers,
                "chaos_plan": args.chaos_plan},
        run_dir=args.run_dir, resume=args.resume,
    )
    config = ServeConfig(
        queue_depth=max(0, args.queue_depth),
        queue_timeout=max(0.0, args.queue_timeout),
        rate_limit=max(0.0, args.rate_limit),
        rate_burst=max(1, args.rate_burst),
        breaker_threshold=max(1, args.breaker_threshold),
        breaker_cooldown=max(0.0, args.breaker_cooldown),
        compute_workers=max(0, args.compute_workers),
        header_timeout=max(0.1, args.header_timeout),
        body_timeout=max(0.1, args.body_timeout),
        drain_timeout=max(0.0, args.drain_timeout),
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
                run_dir=args.run_dir, resume=args.resume,
                job_workers=max(1, args.job_workers),
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
            "run_dir": args.run_dir,
        }, sort_keys=True), flush=True)
        with GracefulShutdown() as stop:
            while not stop.stop_requested():
                time.sleep(0.1)
        pending = server.shutdown(drain_timeout=args.drain_timeout)
        if pending:
            print(f"shutdown with {pending} job(s) unfinished; "
                  f"restart with --run-dir {args.run_dir or '<dir>'} "
                  "--resume to complete them", file=sys.stderr)
            return EXIT_RESUMABLE
        return 0

    return run_cli(body, debug=args.debug, recorder=recorder)


if __name__ == "__main__":  # pragma: no cover - console-script shim
    sys.exit(main())
