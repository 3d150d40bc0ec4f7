"""``lint``: fresh-process ``repro-lint`` invocations.

All rule families on ``word_lm``, then three seeded narrow
``--domain image --select <family>`` invocations, then the same three
again: the repeats are the hit operations (lint keeps no result cache
today, so they cost what the first ones did).  Last, ``solver_check.py``
runs the M family, which ``repro-lint`` runs only on a full-registry
lint.  ``wall_s`` and ``cpu_s`` sum the invocations.  Check: every
report is the registry's known answer, zero diagnostics.
"""

from __future__ import annotations

import json
import random
from typing import List, Tuple

import harness
from harness import Op, Outcome, merge_layer_files

#: rule families a single-domain lint can select (M runs only on the
#: full registry, so ``solver_check`` runs it)
FAMILIES = ["S", "G", "C", "A", "T", "I"]
LINT, SOLVER = "repro.check.cli", "solver_check"
LIMIT_MS = 60_000.0


def invocations(seed: int) -> List[Tuple[str, bool, str, List[str]]]:
    """(label, hit, module, args); three like narrow invocations per
    class, so the hit and miss medians are taken over like
    operations."""
    families = random.Random(seed).sample(FAMILIES, 3)
    narrow = [(f"image:{f}", ["--domain", "image", "--select", f,
                              "--json"]) for f in families]
    return ([("word_lm", False, LINT, ["--domain", "word_lm", "--json"])]
            + [(label, False, LINT, args) for label, args in narrow]
            + [(f"{label} again", True, LINT, args)
               for label, args in narrow]
            + [("solver:M", False, SOLVER, [])])


def _clean(result: harness.ProcResult) -> bool:
    if not result.ok:
        return False
    report = json.loads(result.stdout)
    if "diagnostics" in report:
        return not report["diagnostics"]
    return (all(v == 0 for v in report["summary"].values())
            and all(not d for d in report["graphs"].values()))


def _invoke(ctx: harness.RunContext, traced: bool, tag: str):
    results, ops, files = [], [], []
    for i, (label, hit, module, args) in enumerate(
            invocations(ctx.seed)):
        out = ctx.path(f"{tag}{i}.layers.json") if traced else None
        if out:
            files.append(out)
        argv = ctx.module_argv(module, args, out)
        result = ctx.run(argv, f"{tag}{i}")
        ops.append(Op(label, hit, result.wall_s * 1e3, _clean(result)))
        results.append(result)
    return results, ops, files


def run(ctx: harness.RunContext) -> Outcome:
    setup = ctx.setup_times("repro.check.cli")
    results, ops, _ = _invoke(ctx, False, "lint")
    return Outcome(
        setup_s=harness.median(setup),
        wall_s=sum(r.wall_s for r in results),
        cpu_s=sum(r.cpu_s for r in results),
        peak_rss_mb=max(r.rss_mb for r in results),
        ops=ops,
        limit_ms=LIMIT_MS,
        diagnostics={"invocations": [op.label for op in ops]},
    )


def traced(ctx: harness.RunContext):
    results, ops, files = _invoke(ctx, True, "traced")
    plain, plain_ops, _ = _invoke(ctx, False, "plain")
    overhead = (sum(r.wall_s for r in results)
                / sum(r.wall_s for r in plain) - 1.0)
    return merge_layer_files(files), 0.0, overhead, ops + plain_ops
