"""Artifact-style batch result generation (paper Appendix A).

The paper's artifact ships ``generate_results.sh``, which analyzes all
nine checkpointed compute graphs and writes one ``output_*.txt`` per
model, plus ``gather_results.sh`` to summarize them.  This module is
the equivalent driver over our reconstructed models::

    python -m repro.artifact --out ppopp_2019_outputs

writes one analysis file per (domain, size) configuration and a
``summary.txt`` with the gathered table, mirroring the artifact's
validation workflow.

The configurations are independent, so the batch fans out on the
:mod:`repro.exec` engine (``--max-workers N``); workers return rendered
payloads and the parent writes all files, so parallel output is
byte-identical to the serial run.  Payloads are memoized in a
content-addressed result store keyed on each model's structural graph
hash, so repeated invocations are warm-start (``--no-cache`` /
``--cache-dir`` control this).

Runs are **crash-safe and resumable**: each output file is written
atomically (tmp + rename) *as its task completes*, and every completion
is appended to the run journal under ``<out>/.runstate/``
(:mod:`repro.exec.journal`).  A first Ctrl-C drains in-flight work,
checkpoints the journal and exits with code 3 (resumable); a second
Ctrl-C hard-aborts.  ``--resume`` skips journaled-complete tasks after
re-verifying their on-disk outputs by digest, so the finished tree is
byte-identical to an uninterrupted run.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from . import obs
from .errors import (
    EXIT_ERROR,
    EXIT_OK,
    EXIT_RESUMABLE,
    ReproError,
    RunInterrupted,
    render_error,
)
from .exec.engine import ExecutionEngine, Task, TaskResult
from .exec.journal import RunJournal
from .exec.signals import GracefulShutdown
from .exec.store import ResultStore, default_cache_dir
from .exec.tasks import (
    artifact_config,
    artifact_config_key,
    artifact_payload_ok,
)
from .ioutil import atomic_write_bytes
from .reports.common import Table

__all__ = ["generate_results", "main", "parse_configs"]

#: (domain, size) configurations analyzed, echoing the artifact's nine
#: graphs: the five domains at representative small/large sizes
DEFAULT_CONFIGS: Tuple[Tuple[str, float], ...] = (
    ("word_lm", 1024), ("word_lm", 4096),
    ("char_lm", 1024),
    ("nmt", 1024), ("nmt", 2048),
    ("speech", 1024),
    ("image", 1), ("image", 2), ("image", 4),
)


def parse_configs(spec: str) -> Tuple[Tuple[str, float], ...]:
    """Parse a ``domain:size,domain:size,...`` config list.

    Domains are validated against the registry (unknown names raise
    E-BIND with a did-you-mean hint) before any work starts.
    """
    from .errors import BindingError
    from .models.registry import get_domain

    configs: List[Tuple[str, float]] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, size_text = part.partition(":")
        if not sep:
            raise BindingError(
                f"malformed config {part!r}; expected domain:size",
                hint="e.g. --configs word_lm:1024,image:2",
            )
        get_domain(key)  # raises E-BIND with did-you-mean
        try:
            size = float(size_text)
        except ValueError:
            raise BindingError(
                f"config {part!r} has a non-numeric size "
                f"{size_text!r}",
            ) from None
        configs.append((key, size))
    if not configs:
        raise BindingError("--configs parsed to an empty list")
    return tuple(configs)


def _output_name(key: str, size: float) -> str:
    return f"output_{key}_{size:g}.txt"


def generate_results(out_dir: str,
                     configs: Sequence[Tuple[str, float]] = DEFAULT_CONFIGS,
                     *,
                     max_workers: int = 0,
                     store: Optional[ResultStore] = None,
                     journal: Optional[RunJournal] = None,
                     stop=None,
                     ) -> List[str]:
    """Write one analysis file per configuration + a summary table.

    ``max_workers=0`` (default) analyzes serially in-process;
    ``max_workers=N`` fans the configurations out as a task DAG on a
    process pool.  Either way every per-config file is written
    atomically *as its task completes* with content depending only on
    the config, so output bytes are identical.  With a ``store``,
    per-config payloads are cached across invocations.

    With a ``journal``, each completion (file path + digest included)
    is appended to the crash-safe run journal, journaled-complete
    tasks are skipped on resume, and a ``stop`` poll (see
    :class:`~repro.exec.signals.GracefulShutdown`) lets the run drain
    and raise :class:`~repro.errors.RunInterrupted` cleanly.  Library
    callers that pass no journal get the plain (non-resumable) run
    with no ``.runstate`` directory.

    Returns the list of files written, in ``configs`` order.
    """
    os.makedirs(out_dir, exist_ok=True)

    by_id: Dict[str, Tuple[str, float]] = {}
    tasks = []
    for key, size in configs:
        task = Task(
            id=f"artifact:{key}:{size:g}",
            fn=artifact_config,
            args=(key, size),
            key=(artifact_config_key(key, size)
                 if store is not None else None),
            validate=artifact_payload_ok,
            outputs=(_output_name(key, size),),
        )
        by_id[task.id] = (key, size)
        tasks.append(task)

    def write_output(task: Task, result: TaskResult):
        """Publish one config's file the moment its task completes."""
        key, size = by_id[task.id]
        blob = (result.value["report"] + "\n").encode("utf-8")
        rel = _output_name(key, size)
        with obs.span("artifact.output", "artifact", domain=key,
                      size=size):
            atomic_write_bytes(os.path.join(out_dir, rel), blob)
        return {"files": {rel: hashlib.sha256(blob).hexdigest()}}

    engine = ExecutionEngine(max_workers=max_workers, store=store,
                             journal=journal, stop=stop)
    results = engine.run(tasks, on_result=write_output)

    written: List[str] = []
    summary_rows = []
    for (key, size), task in zip(configs, tasks):
        written.append(os.path.join(out_dir, _output_name(key, size)))
        summary_rows.append(results[task.id].value["summary_row"])

    with obs.span("artifact.summary", "artifact",
                  n_configs=len(configs)):
        summary = Table(
            title="Gathered results (per training step)",
            headers=["Domain", "Size", "Params", "FLOPs/step",
                     "Bytes/step", "Intensity"],
            rows=summary_rows,
        )
        summary_path = os.path.join(out_dir, "summary.txt")
        atomic_write_bytes(summary_path,
                           (summary.render() + "\n").encode("utf-8"))
        written.append(summary_path)
    return written


def add_exec_arguments(parser: argparse.ArgumentParser) -> None:
    """Engine/store flags shared by this CLI and ``repro-report``."""
    parser.add_argument(
        "--max-workers", type=int, default=0, metavar="N",
        help="fan the batch out on an N-process pool (0 = serial "
             "in-process, the default); output is byte-identical "
             "either way",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk result store (always recompute)",
    )
    parser.add_argument(
        "--cache-dir", metavar="PATH", default=None,
        help="result-store directory (default: $REPRO_CACHE_DIR or "
             "~/.cache/repro)",
    )


def add_resilience_arguments(parser: argparse.ArgumentParser) -> None:
    """Resume/debug flags shared by this CLI and ``repro-report``."""
    parser.add_argument(
        "--resume", action="store_true",
        help="resume an interrupted run: skip tasks whose journaled "
             "outputs re-verify by digest (run state lives under "
             "<run-dir>/.runstate/)",
    )
    parser.add_argument(
        "--debug", action="store_true",
        help="show raw tracebacks instead of one-paragraph "
             "E-* error summaries",
    )


def store_from_args(args: argparse.Namespace) -> Optional[ResultStore]:
    """Build the result store a parsed CLI run asked for (or None)."""
    if args.no_cache:
        return None
    return ResultStore(args.cache_dir or default_cache_dir())


def run_cli(fn, *, debug: bool = False, stream=None,
            recorder=None) -> int:
    """Run a CLI body with the shared error policy and exit codes.

    * :class:`~repro.errors.RunInterrupted` (graceful drain after
      SIGINT/SIGTERM) → exit :data:`~repro.errors.EXIT_RESUMABLE` (3);
    * any other :class:`~repro.errors.ReproError` → one-paragraph
      rendered message on stderr, exit :data:`~repro.errors.EXIT_ERROR`
      (1) — unless ``debug``, which re-raises for the full traceback;
    * success → the body's return code (or 0).

    A :class:`~repro.obs.history.RunRecorder` passed as ``recorder``
    gets ``finish(exit_code)`` on every path — success, graceful
    interrupt, rendered error, and the ``debug`` re-raise — so each
    CLI run lands in the persistent run history regardless of outcome.
    """
    stream = stream if stream is not None else sys.stderr

    def finish(code: int) -> int:
        if recorder is not None:
            recorder.finish(code)
        return code

    try:
        code = fn()
        return finish(EXIT_OK if code is None else code)
    except RunInterrupted as error:
        print(render_error(error), file=stream)
        return finish(EXIT_RESUMABLE)
    except ReproError as error:
        if debug:
            finish(EXIT_ERROR)
            raise
        print(render_error(error), file=stream)
        return finish(EXIT_ERROR)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.artifact",
        description="Generate per-model analysis files "
                    "(the artifact's generate_results.sh equivalent).",
    )
    parser.add_argument("--out", default="ppopp_2019_outputs",
                        help="output directory")
    parser.add_argument(
        "--configs", metavar="SPEC", default=None,
        help="comma-separated domain:size list overriding the default "
             "nine configurations (e.g. word_lm:1024,image:2)",
    )
    add_exec_arguments(parser)
    add_resilience_arguments(parser)
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="write a Chrome trace_events JSON of the "
                             "batch run (chrome://tracing / Perfetto)")
    parser.add_argument("--metrics", action="store_true",
                        help="print the repro.obs metrics summary "
                             "after generating")
    args = parser.parse_args(argv)
    if args.trace or args.metrics:
        obs.enable()

    # built before the journal opens so a --resume run can still read
    # the interrupted run's history id from <out>/.runstate/
    recorder = obs.RunRecorder(
        "repro.artifact",
        config={"out": args.out, "configs": args.configs,
                "max_workers": args.max_workers,
                "resume": bool(args.resume),
                "trace": bool(args.trace)},
        run_dir=args.out,
        resume=args.resume,
    )

    def body() -> int:
        configs = (parse_configs(args.configs)
                   if args.configs else DEFAULT_CONFIGS)
        with RunJournal(args.out, resume=args.resume) as journal, \
                GracefulShutdown() as shutdown:
            files = generate_results(
                args.out, configs,
                max_workers=args.max_workers,
                store=store_from_args(args),
                journal=journal,
                stop=shutdown.stop_requested,
            )
        for path in files:
            print(f"wrote {path}")
        if journal.skipped:
            print(f"resumed: {journal.skipped} task(s) verified and "
                  "skipped from the journal")
        if args.trace:
            print(f"wrote {obs.write_chrome_trace(args.trace)}")
        if args.metrics:
            print()
            print(obs.summary())
        return EXIT_OK

    return run_cli(body, debug=args.debug, recorder=recorder)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
