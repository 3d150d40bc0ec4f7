"""``report``: the paper reproducer's first run and repeat run.

A fresh store, then one cold serial ``repro-report all`` (the timed
long phase: ``wall_s``, ``cpu_s``), then one seeded fresh-process
``repro-report <exhibit>`` invocation that is answered from that store
(the hit operation).  Checks: every process exits 0, the cold
output splits into one section per exhibit, each warm exhibit's output
is non-empty and byte-identical to its own section of the cold output,
and the 12 golden exhibits the cold run stored match the goldens.
"""

from __future__ import annotations

import os
import random
from typing import List

import harness
from harness import EXHIBITS, Op, Outcome, merge_layer_files

#: warm invocations per run (each costs ~10 s: see README, "Budget")
WARM = 1
#: an invocation slower than this counts against within_limit_share
LIMIT_MS = 150_000.0


def _warm_exhibits(seed: int) -> List[str]:
    return random.Random(seed).sample(EXHIBITS, WARM)


def cold_sections(stdout: bytes) -> List[bytes]:
    """Split ``repro-report all`` output into its exhibits' sections.

    ``all`` prints each exhibit's render, then a blank line, in
    ``EXHIBITS`` order; a render starts with its title and a line of
    ``=`` as long as the title.  A single-exhibit invocation prints
    exactly its section.
    """
    lines = stdout.split(b"\n")
    starts = [i for i in range(len(lines) - 1)
              if lines[i] and lines[i + 1] == b"=" * len(lines[i])
              and (i == 0 or lines[i - 1] == b"")]
    ends = starts[1:] + [len(lines) - 1]
    return [b"\n".join(lines[a:b]) + b"\n"
            for a, b in zip(starts, ends)]


def _golden_check(ctx: harness.RunContext) -> None:
    result = ctx.run([harness.PYTHON,
                      os.path.join(harness.BENCH_DIR, "golden_check.py"),
                      ctx.env["REPRO_CACHE_DIR"]], "golden")
    ctx.check(result.ok, "golden check: "
              + result.stdout.decode(errors="replace").strip())


def _phases(ctx: harness.RunContext, traced: bool):
    """The cold ``all`` and the warm invocations, checked; returns
    (cold result, [(exhibit, warm result)], ops, layer files)."""
    layer_files: List[str] = []

    def argv(label: str, args: List[str]) -> List[str]:
        out = None
        if traced:
            out = ctx.path(f"{label}.layers.json")
            layer_files.append(out)
        return ctx.module_argv("repro.cli", args, out)

    cold = ctx.run(argv("cold", ["all"]), "cold")
    if cold.ok:
        _golden_check(ctx)
    ops = [Op("all", False, cold.wall_s * 1e3, cold.ok)]
    sections = cold_sections(cold.stdout)
    ctx.check(len(sections) == len(EXHIBITS),
              "cold output does not split into one section per exhibit")
    sections = dict(zip(EXHIBITS, sections))
    warm = []
    for i, name in enumerate(_warm_exhibits(ctx.seed)):
        result = ctx.run(argv(f"warm{i}", [name]), f"warm{i}")
        same = result.ok and ctx.check(
            bool(result.stdout) and result.stdout == sections.get(name),
            f"warm {name} differs from its section of the cold output")
        ops.append(Op(name, True, result.wall_s * 1e3, same))
        warm.append((name, result))
    return cold, warm, ops, layer_files


def run(ctx: harness.RunContext) -> Outcome:
    setup = ctx.setup_times("repro.cli")
    cold, warm, ops, _ = _phases(ctx, traced=False)
    return Outcome(
        setup_s=harness.median(setup),
        wall_s=cold.wall_s,
        cpu_s=cold.cpu_s,
        peak_rss_mb=max([cold.rss_mb] + [r.rss_mb for _, r in warm]),
        ops=ops,
        limit_ms=LIMIT_MS,
        diagnostics={"warm_exhibits": [name for name, _ in warm]},
    )


def traced(ctx: harness.RunContext):
    _, warm, ops, files = _phases(ctx, traced=True)
    # tracing overhead: the first warm exhibit again, untraced
    name, traced_warm = warm[0]
    plain = ctx.run(ctx.module_argv("repro.cli", [name]), "plain")
    ops.append(Op(f"{name} untraced", True, plain.wall_s * 1e3,
                  plain.ok and plain.stdout == traced_warm.stdout))
    overhead = traced_warm.wall_s / plain.wall_s - 1.0
    return merge_layer_files(files), 0.0, overhead, ops
