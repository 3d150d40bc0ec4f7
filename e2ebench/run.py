"""End-to-end benchmark of the repro pipeline.

    python3 e2ebench/run.py --workload report --seed 1 --seconds 10 --trace 0

Runs one workload (``report``, ``serve_mixed`` or ``lint``; see
README.md) from the root of a source checkout, checks every output it
times, and prints one JSON object as the last line of stdout.  With
``--trace 0`` it carries the end-to-end metrics; with ``--trace 1`` it
runs the workload again under the layer-wrapping launcher and carries
the per-layer metrics instead.  No end-to-end number comes from a
traced run.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import importlib
import json
import os
import signal
import sys
from typing import Dict, List

import harness
from layers import LAYER_NAMES

WORKLOADS = {"report": "wl_report", "serve_mixed": "wl_serve",
             "lint": "wl_lint"}

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB",
    "p50_ms": "ms", "p99_ms": "ms", "hit_p50_ms": "ms",
    "miss_p50_ms": "ms", "within_limit_share": "ratio",
}


def end_to_end_metrics(outcome: harness.Outcome) -> Dict[str, float]:
    latencies = [op.latency_ms for op in outcome.ops]
    hits = [op.latency_ms for op in outcome.ops if op.hit]
    misses = [op.latency_ms for op in outcome.ops if not op.hit]
    within = sum(1 for op in outcome.ops
                 if op.ok and op.latency_ms <= outcome.limit_ms)
    return {
        "setup_s": outcome.setup_s,
        "wall_s": outcome.wall_s,
        "cpu_s": outcome.cpu_s,
        "peak_rss_mb": outcome.peak_rss_mb,
        "p50_ms": harness.median(latencies),
        "p99_ms": harness.nearest_rank(latencies, 0.99),
        "hit_p50_ms": harness.median(hits),
        "miss_p50_ms": harness.median(misses),
        "within_limit_share": within / len(outcome.ops),
    }


# -- per-layer metrics -------------------------------------------------------

#: (metric, unit, where it is read: a wrapper count or a program
#: counter of ``repro.obs``)
LAYER_COUNTS = [
    ("models.ops", "count", "counts"),
    ("graph.autodiff.ops", "count", "counts"),
    ("graph.serialize.ops", "count", "counts"),
    ("check.diagnostics", "count", "counts"),
    ("exec.store.bytes_read", "bytes", "counts"),
    ("exec.store.bytes_written", "bytes", "counts"),
    ("serve.admission.wait_ms", "ms", "counts"),
    ("analysis.sweep.points", "count", "counters"),
    ("analysis.sweep.cache.hit", "count", "counters"),
    ("analysis.sweep.cache.miss", "count", "counters"),
    ("analysis.tape_cache.hit", "count", "counters"),
    ("analysis.tape_cache.miss", "count", "counters"),
    ("exec.store.hit", "count", "counters"),
    ("exec.store.miss", "count", "counters"),
    ("serve.query.computed", "count", "counters"),
    ("serve.coalesce.hit", "count", "counters"),
    ("serve.admission.queued", "count", "counters"),
    ("serve.admission.shed", "count", "counters"),
]

#: counts that depend on request timing on serve_mixed (which of two
#: identical in-flight requests leads), so they are left out of the
#: exact-count comparison there
TIMING_DEPENDENT = {"exec.store.calls", "exec.store.hit",
                    "exec.store.bytes_read", "serve.coalesce.hit",
                    "serve.admission.queued", "serve.admission.shed"}


def layer_metrics(merged: Dict[str, dict], http_self_ms: float,
                  overhead_share: float) -> Dict[str, tuple]:
    stats = merged["stats"]
    out: Dict[str, tuple] = {}
    reports = [stats.get(f"reports.{name}", {})
               for name in harness.EXHIBITS]
    for layer in LAYER_NAMES:
        if layer == "reports":
            rec = {"calls": sum(r.get("calls", 0) for r in reports),
                   "self_ms": sum(r.get("self_ms", 0.0)
                                  for r in reports)}
        else:
            rec = stats.get(layer, {})
        out[f"{layer}.calls"] = (rec.get("calls", 0), "count")
        out[f"{layer}.self_ms"] = (rec.get("self_ms", 0.0), "ms")
    for name, rec in zip(harness.EXHIBITS, reports):
        out[f"reports.{name}.incl_ms"] = (rec.get("incl_ms", 0.0), "ms")
    for name, unit, section in LAYER_COUNTS:
        out[name] = (merged[section].get(name, 0), unit)
    out["serve.http.self_ms"] = (http_self_ms, "ms")
    out["obs.trace_overhead_share"] = (overhead_share, "ratio")
    return out


def exact_counts(metrics: Dict[str, tuple], workload: str) -> Dict:
    """The metrics that must repeat exactly between traced runs."""
    skip = TIMING_DEPENDENT if workload == "serve_mixed" else set()
    return {name: value for name, (value, unit) in metrics.items()
            if unit in ("count", "bytes") and name not in skip}


def check_counts_repeat(ctx: harness.RunContext,
                        counts: Dict[str, float]) -> List[str]:
    """Compare with the previous traced run of this workload and seed
    on the same code; a mismatch means nondeterministic work."""
    digest = hashlib.sha256()
    for top in ("src", "e2ebench"):
        pattern = os.path.join(ctx.root, top, "**", "*.py")
        for source in sorted(glob.glob(pattern, recursive=True)):
            with open(source, "rb") as handle:
                digest.update(source[len(ctx.root):].encode())
                digest.update(handle.read())
    path = os.path.join(ctx.root, ".e2ebench-work", "counts",
                        f"{ctx.workload}-s{ctx.seed}.json")
    record = {"code": digest.hexdigest(), "counts": counts}
    previous = None
    if os.path.exists(path):
        previous = harness.load_json(path)
    if previous is None or previous["code"] != record["code"]:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump(record, handle, sort_keys=True)
        return []
    return [f"{name}: {previous['counts'].get(name)} then {value}"
            for name, value in sorted(counts.items())
            if previous["counts"].get(name) != value]


# -- entry point -------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro",
                                       "__init__.py")):
        print("run from the root of a repro checkout (src/repro is "
              "missing)", file=sys.stderr)
        return 2

    # a terminated run still stops its children (ctx.close below)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    module = importlib.import_module(WORKLOADS[args.workload])
    ctx = harness.RunContext.create(root, args.workload, args.seed,
                                 args.seconds)
    probe_before = harness.host_probe()
    try:
        if args.trace:
            merged, http_self_ms, overhead, ops = module.traced(ctx)
            metrics = layer_metrics(merged, http_self_ms, overhead)
            mismatches = check_counts_repeat(
                ctx, exact_counts(metrics, args.workload))
            ctx.check(not mismatches, "counts changed between traced "
                      f"runs of the same code: {mismatches}")
            result = {name: {"value": value, "unit": unit}
                      for name, (value, unit) in metrics.items()}
        else:
            outcome = module.run(ctx)
            ops = outcome.ops
            values = end_to_end_metrics(outcome)
            result = {name: {"value": values[name], "unit": unit}
                      for name, unit in END_TO_END.items()}
        attempted = len(ops) + ctx.checks[0]
        failed = sum(1 for op in ops if not op.ok) + ctx.checks[1]
        if not args.trace:
            print(f"summary {args.workload}: " + ", ".join(
                f"{name}={values[name]:.6g} {unit}"
                for name, unit in END_TO_END.items())
                + f", fail_share={failed / attempted:.6g} ratio "
                f"({attempted} operations and checks)")
            for key, value in outcome.diagnostics.items():
                print(f"diagnostic {key}: {value}")
    finally:
        ctx.close()
    probe_after = harness.host_probe()
    print(f"diagnostic host_probe_s: before={probe_before:.4f} "
          f"after={probe_after:.4f}")
    for note in ctx.notes:
        print(f"note: {note}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
