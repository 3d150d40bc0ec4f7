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
content-addressed result store keyed on each configuration and a
digest of the package source, so repeated invocations are warm-start
(``--no-cache`` / ``--cache-dir`` control this).

Runs are **crash-safe and resumable through the store**: each output
file is written atomically (tmp + rename) *as its task completes*, and
each finished payload is already in the result store.  A first Ctrl-C
drains in-flight work and exits with code 3 (resumable); a second
Ctrl-C hard-aborts.  Rerunning the same command answers the finished
configurations from the store (rewriting their files) and computes
only the rest, so the finished tree is byte-identical to an
uninterrupted run.  A ``--no-cache`` run keeps nothing to resume from.
"""

from __future__ import annotations

import argparse
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
        # the output file name is the config's identity
        if any(_output_name(key, size) == _output_name(*seen)
               for seen in configs):
            raise BindingError(
                f"config {key}:{size:g} is listed twice in --configs",
                hint="sizes that print alike (e.g. word_lm:1024 and "
                     "word_lm:1024.0) name one output file",
            )
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
                     stop=None,
                     ) -> List[str]:
    """Write one analysis file per configuration + a summary table.

    ``max_workers=0`` (default) analyzes serially in-process;
    ``max_workers=N`` fans the configurations out as a task list on a
    process pool.  Either way every per-config file is written
    atomically *as its task completes* with content depending only on
    the config, so output bytes are identical.  With a ``store``,
    per-config payloads are cached across invocations.

    A ``stop`` poll (see :class:`~repro.exec.signals.GracefulShutdown`)
    lets the run drain and raise :class:`~repro.errors.RunInterrupted`
    cleanly; the configurations it finished are then in the ``store``.

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

    def write_output(task: Task, result: TaskResult) -> None:
        """Publish one config's file the moment its task completes."""
        key, size = by_id[task.id]
        blob = (result.value["report"] + "\n").encode("utf-8")
        with obs.span("artifact.output", "artifact", domain=key,
                      size=size):
            atomic_write_bytes(
                os.path.join(out_dir, _output_name(key, size)), blob)

    if max_workers:
        # fork-started workers inherit what this process has loaded:
        # load what artifact_config runs once, before the fork
        from .reports import describe  # noqa: F401
    engine = ExecutionEngine(max_workers=max_workers, store=store,
                             stop=stop)
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


def _worker_count(text: str) -> int:
    """argparse type of a count flag (``--max-workers`` here,
    ``--compute-workers`` and ``--queue-depth`` of ``repro-serve``): a
    non-negative integer."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {text!r}")
    return int(text)


def add_exec_arguments(parser: argparse.ArgumentParser) -> None:
    """Engine, store and debug flags shared by this CLI and
    ``repro-report``."""
    parser.add_argument(
        "--max-workers", type=_worker_count, default=0, metavar="N",
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
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="write a Chrome trace_events JSON of the "
                             "batch run (chrome://tracing / Perfetto)")
    parser.add_argument("--metrics", action="store_true",
                        help="print the repro.obs metrics summary "
                             "after generating")
    args = parser.parse_args(argv)
    if args.trace or args.metrics:
        obs.enable()

    recorder = obs.RunRecorder(
        "repro.artifact",
        config={"out": args.out, "configs": args.configs,
                "max_workers": args.max_workers,
                "trace": bool(args.trace)},
    )

    def body() -> int:
        configs = (parse_configs(args.configs)
                   if args.configs else DEFAULT_CONFIGS)
        with GracefulShutdown() as shutdown:
            files = generate_results(
                args.out, configs,
                max_workers=args.max_workers,
                store=store_from_args(args),
                stop=shutdown.stop_requested,
            )
        for path in files:
            print(f"wrote {path}")
        if args.trace:
            print(f"wrote {obs.write_chrome_trace(args.trace)}")
        if args.metrics:
            print()
            print(obs.summary())
        return EXIT_OK

    return run_cli(body, debug=args.debug, recorder=recorder)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
