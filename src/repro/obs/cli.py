"""``repro-obs`` — the run-history observatory CLI.

Every ``repro-report`` / ``python -m repro.artifact`` invocation
appends one self-contained record (metrics snapshot with log2 buckets,
span-time rollup, config, exit status) to the persistent run history
(:mod:`repro.obs.history`).  This command is the reader::

    repro-obs list                      # recent runs, newest last
    repro-obs show latest               # one run: percentiles + spans
    repro-obs diff prev latest          # metric/span deltas, signed
    repro-obs check --floors benchmarks/OBS_floors.json
    repro-obs export latest             # OpenMetrics text exposition

``list``/``show`` accept ``--csv`` for machine-readable output.
``diff`` reports B−A for every metric present in either run (so a
regression shows as a positive delta on a "bad" counter and a negative
one on throughput-style values) and ``--threshold PCT`` hides noise.
``check`` gates a run against committed floors and exits nonzero on
any violation — the CI regression hook.  Run ids may be full SHA-256
ids, unique prefixes, or the aliases ``latest``/``last``/``prev``.

The history file is ``$REPRO_HISTORY`` or ``<cache-dir>/history.jsonl``
(``--history PATH`` overrides both).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Dict, List, Optional

from .history import RunHistory, history_path
from .metrics import percentile_from_buckets

__all__ = ["main"]

#: exit code for check violations / unknown run ids (distinct from the
#: E-* taxonomy's EXIT_ERROR so scripts can tell "gate failed" apart
#: from "tool crashed")
EXIT_VIOLATION = 2


def _table(title: str, headers: List[str], rows: List[List[str]],
           *, csv: bool = False) -> str:
    from ..reports.common import Table

    table = Table(title=title, headers=headers, rows=rows)
    return table.to_csv() if csv else table.render()


def _fmt_when(started: Any) -> str:
    try:
        return time.strftime("%Y-%m-%d %H:%M:%S",
                             time.localtime(float(started)))
    except (TypeError, ValueError):
        return "?"


def _metric_value(entry: Dict[str, Any]) -> Optional[float]:
    """The single comparable number of a metric snapshot entry:
    counter/gauge value, histogram observation count."""
    kind = entry.get("type")
    if kind in ("counter", "gauge"):
        value = entry.get("value")
    elif kind == "histogram":
        value = entry.get("count")
    else:
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _resolve(history: RunHistory, run_id: str) -> Dict[str, Any]:
    record = history.get(run_id)
    if record is None:
        raise SystemExit(
            f"repro-obs: no unique run matches {run_id!r} in "
            f"{history.path} (try 'repro-obs list')")
    return record


def _fmt_num(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:g}"


def _fmt_delta(value: float) -> str:
    return ("+" if value > 0 else "") + _fmt_num(value)


# -- subcommands -------------------------------------------------------------

def cmd_list(history: RunHistory, args: argparse.Namespace) -> int:
    records = history.load()
    if args.limit and len(records) > args.limit:
        records = records[-args.limit:]
    rows = []
    for record in records:
        rows.append([
            str(record.get("run_id", ""))[:12],
            _fmt_when(record.get("started")),
            str(record.get("command", "?")),
            str(record.get("status", "?")),
            f"{float(record.get('duration_s', 0.0)):.2f}",
            str(record.get("n_spans", 0)),
        ])
    if not rows:
        print(f"no runs recorded in {history.path}")
        return 0
    print(_table(f"Run history ({history.path})",
                 ["Run", "Started", "Command", "Status", "Wall s",
                  "Spans"],
                 rows, csv=args.csv))
    return 0


def _histogram_percentile_cells(entry: Dict[str, Any]) -> List[str]:
    buckets = entry.get("buckets") or {}
    count = int(entry.get("count", 0))
    vmin = entry.get("min")
    vmax = entry.get("max")
    cells = []
    for q in (0.5, 0.95, 0.99):
        est = percentile_from_buckets(buckets, count, q,
                                      vmin=vmin, vmax=vmax)
        cells.append(f"{est:g}" if est is not None else "")
    return cells


def cmd_show(history: RunHistory, args: argparse.Namespace) -> int:
    record = _resolve(history, args.run)
    header = (f"run {record['run_id'][:12]}  command="
              f"{record.get('command')}  status={record.get('status')}"
              f"  exit={record.get('exit_code')}  started="
              f"{_fmt_when(record.get('started'))}  wall="
              f"{float(record.get('duration_s', 0.0)):.2f}s")
    if not args.csv:
        print(header)
        if record.get("config"):
            print("config: " + json.dumps(record["config"],
                                          sort_keys=True))
        print()

    metric_rows = []
    for name in sorted(record.get("metrics") or {}):
        entry = record["metrics"][name]
        kind = entry.get("type", "?")
        if kind == "histogram":
            value = str(entry.get("count", 0))
            p50, p95, p99 = _histogram_percentile_cells(entry)
        else:
            value = _fmt_num(_metric_value(entry) or 0.0)
            p50 = p95 = p99 = ""
        metric_rows.append([name, kind, value, p50, p95, p99])
    if metric_rows:
        print(_table("Metrics",
                     ["Name", "Type", "Value/Count", "p50", "p95",
                      "p99"],
                     metric_rows, csv=args.csv))

    span_rows = []
    spans = record.get("spans") or {}
    for name in sorted(spans):
        entry = spans[name]
        span_rows.append([
            name,
            str(entry.get("count", 0)),
            f"{entry.get('total_ns', 0) / 1e6:.2f}",
            f"{entry.get('max_ns', 0) / 1e6:.2f}",
            str(entry.get("errors", 0)),
        ])
    if span_rows:
        if not args.csv:
            print()
        print(_table("Span rollup",
                     ["Name", "Count", "Total ms", "Max ms", "Errors"],
                     span_rows, csv=args.csv))
    if not metric_rows and not span_rows:
        print("(run recorded no metrics or spans)")
    return 0


def cmd_diff(history: RunHistory, args: argparse.Namespace) -> int:
    rec_a = _resolve(history, args.run_a)
    rec_b = _resolve(history, args.run_b)
    if not args.csv:
        print(f"diff {rec_a['run_id'][:12]} "
              f"({_fmt_when(rec_a.get('started'))}) -> "
              f"{rec_b['run_id'][:12]} "
              f"({_fmt_when(rec_b.get('started'))})   [delta = B - A]")
        print()

    metrics_a = rec_a.get("metrics") or {}
    metrics_b = rec_b.get("metrics") or {}
    metric_rows = []
    for name in sorted(set(metrics_a) | set(metrics_b)):
        va = _metric_value(metrics_a.get(name, {}))
        vb = _metric_value(metrics_b.get(name, {}))
        a = va if va is not None else 0.0
        b = vb if vb is not None else 0.0
        delta = b - a
        if delta == 0 and not args.all:
            continue
        pct = (delta / abs(a) * 100.0) if a else None
        if (args.threshold and pct is not None
                and abs(pct) < args.threshold):
            continue
        metric_rows.append([
            name,
            _fmt_num(a) if va is not None else "",
            _fmt_num(b) if vb is not None else "",
            _fmt_delta(delta),
            f"{pct:+.1f}%" if pct is not None else "new",
        ])
    if metric_rows:
        print(_table("Metric deltas", ["Name", "A", "B", "Delta", "%"],
                     metric_rows, csv=args.csv))

    spans_a = rec_a.get("spans") or {}
    spans_b = rec_b.get("spans") or {}
    span_rows = []
    for name in sorted(set(spans_a) | set(spans_b)):
        ta = spans_a.get(name, {}).get("total_ns", 0) / 1e6
        tb = spans_b.get(name, {}).get("total_ns", 0) / 1e6
        delta = tb - ta
        if delta == 0 and not args.all:
            continue
        pct = (delta / abs(ta) * 100.0) if ta else None
        if (args.threshold and pct is not None
                and abs(pct) < args.threshold):
            continue
        span_rows.append([
            name,
            f"{ta:.2f}",
            f"{tb:.2f}",
            ("+" if delta > 0 else "") + f"{delta:.2f}",
            f"{pct:+.1f}%" if pct is not None else "new",
        ])
    if span_rows:
        if metric_rows and not args.csv:
            print()
        print(_table("Span-time deltas (ms)",
                     ["Name", "A ms", "B ms", "Delta", "%"],
                     span_rows, csv=args.csv))
    if not metric_rows and not span_rows:
        print("no differences"
              + ("" if args.all else " (use --all to show zeros)"))
    return 0


def cmd_check(history: RunHistory, args: argparse.Namespace) -> int:
    """Gate a recorded run against committed floors; nonzero on any
    violation.  Floors file schema::

        {"metrics_min": {"name": N, ...},   # value/count must be >= N
         "metrics_max": {"name": N, ...},   # value/count must be <= N
         "require_spans": ["exec.run", ...],# rollup key must exist
         "span_total_ms_max": {"key": MS}}  # rollup total must be <= MS

    A metric that ``metrics_min`` or ``metrics_max`` names must be in
    the record: registered metrics are snapshotted even at 0, so a
    missing one is a misspelt or deleted name, and a violation.

    A floors file may also carry named ``"sections"`` — the same
    schema, keyed by section name, gating *different* run records
    (e.g. the ``serve`` section gates the chaos-smoke daemon run while
    the top level gates the artifact smoke run).  ``--section NAME``
    selects one; the top-level keys are ignored in that mode.
    """
    record = _resolve(history, args.run)
    try:
        with open(args.floors, "r", encoding="utf-8") as handle:
            floors = json.load(handle)
    except (OSError, ValueError) as error:
        print(f"repro-obs: cannot read floors file "
              f"{args.floors!r}: {error}", file=sys.stderr)
        return EXIT_VIOLATION
    section = getattr(args, "section", None)
    if section is not None:
        sections = floors.get("sections") or {}
        if section not in sections:
            print(f"repro-obs: no section {section!r} in "
                  f"{args.floors} (available: "
                  f"{sorted(sections)})", file=sys.stderr)
            return EXIT_VIOLATION
        floors = sections[section]
    metrics = record.get("metrics") or {}
    spans = record.get("spans") or {}
    violations: List[str] = []
    checks = 0

    for name, floor in (floors.get("metrics_min") or {}).items():
        checks += 1
        value = _metric_value(metrics.get(name, {}))
        if value is None:
            violations.append(f"metric {name!r} missing "
                              f"(needs >= {floor})")
        elif value < float(floor):
            violations.append(f"metric {name} = {_fmt_num(value)} "
                              f"below floor {floor}")
    for name, ceiling in (floors.get("metrics_max") or {}).items():
        checks += 1
        value = _metric_value(metrics.get(name, {}))
        if value is None:
            violations.append(f"metric {name!r} missing "
                              f"(needs <= {ceiling})")
        elif value > float(ceiling):
            violations.append(f"metric {name} = {_fmt_num(value)} "
                              f"above ceiling {ceiling}")
    for name in floors.get("require_spans") or []:
        checks += 1
        if name not in spans or not spans[name].get("count"):
            violations.append(f"required span {name!r} absent from "
                              "the run's rollup")
    for name, ms in (floors.get("span_total_ms_max") or {}).items():
        checks += 1
        total_ms = spans.get(name, {}).get("total_ns", 0) / 1e6
        if total_ms > float(ms):
            violations.append(f"span {name} total {total_ms:.1f} ms "
                              f"exceeds budget {ms} ms")

    run_label = record["run_id"][:12]
    if violations:
        print(f"repro-obs check: run {run_label} FAILED "
              f"({len(violations)}/{checks} checks):")
        for violation in violations:
            print(f"  - {violation}")
        return EXIT_VIOLATION
    print(f"repro-obs check: run {run_label} passed "
          f"{checks} check(s) against {args.floors}")
    return 0


def cmd_export(history: RunHistory, args: argparse.Namespace) -> int:
    """Re-expose a recorded run's metrics as OpenMetrics text."""
    from .export import openmetrics_text
    from .metrics import MetricsRegistry

    record = _resolve(history, args.run)
    registry = MetricsRegistry()
    for name, entry in sorted((record.get("metrics") or {}).items()):
        kind = entry.get("type")
        if kind == "counter":
            registry.counter(name).inc(int(entry.get("value", 0)))
        elif kind == "gauge":
            registry.gauge(name).set(float(entry.get("value", 0.0)))
        elif kind == "histogram":
            hist = registry.histogram(name)
            hist.count = int(entry.get("count", 0))
            hist.total = float(entry.get("sum",
                                         entry.get("total", 0.0)))
            if entry.get("min") is not None:
                hist.min = float(entry["min"])
            if entry.get("max") is not None:
                hist.max = float(entry["max"])
            for index, count in (entry.get("buckets") or {}).items():
                hist.buckets[int(index)] = int(count)
    text = openmetrics_text(registry)
    if args.out:
        from ..ioutil import atomic_write_text

        atomic_write_text(args.out, text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


# -- entry point -------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-obs",
        description="Inspect, diff, and gate the persistent run "
                    "history recorded by repro-report / repro.artifact.",
    )
    parser.add_argument(
        "--history", metavar="PATH", default=None,
        help="history JSONL file (default: $REPRO_HISTORY or "
             "<cache-dir>/history.jsonl)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="recent runs, newest last")
    p_list.add_argument("--limit", type=int, default=20, metavar="N",
                        help="show at most the last N runs (0 = all)")
    p_list.add_argument("--csv", action="store_true")

    p_show = sub.add_parser(
        "show", help="one run's metrics (with percentiles) + spans")
    p_show.add_argument("run", nargs="?", default="latest",
                        help="run id, unique prefix, or "
                             "latest/last/prev (default: latest)")
    p_show.add_argument("--csv", action="store_true")

    p_diff = sub.add_parser(
        "diff", help="metric and span-time deltas between two runs")
    p_diff.add_argument("run_a", help="baseline run (A)")
    p_diff.add_argument("run_b", help="comparison run (B); "
                                      "deltas are B - A")
    p_diff.add_argument("--threshold", type=float, default=0.0,
                        metavar="PCT",
                        help="hide rows whose relative change is "
                             "below PCT percent")
    p_diff.add_argument("--all", action="store_true",
                        help="include unchanged rows")
    p_diff.add_argument("--csv", action="store_true")

    p_check = sub.add_parser(
        "check", help="gate a run against committed floors "
                      "(nonzero exit on violation)")
    p_check.add_argument("run", nargs="?", default="latest")
    p_check.add_argument("--floors", required=True, metavar="PATH",
                         help="JSON floors file (see "
                              "benchmarks/OBS_floors.json)")
    p_check.add_argument("--section", default=None, metavar="NAME",
                         help="check the named entry under the "
                              "floors file's \"sections\" instead of "
                              "its top-level keys")

    p_export = sub.add_parser(
        "export", help="OpenMetrics/Prometheus text exposition of a "
                       "recorded run's metrics")
    p_export.add_argument("run", nargs="?", default="latest")
    p_export.add_argument("--out", metavar="PATH", default=None,
                          help="write to PATH instead of stdout")

    args = parser.parse_args(argv)
    history = RunHistory(args.history)
    handler = {
        "list": cmd_list,
        "show": cmd_show,
        "diff": cmd_diff,
        "check": cmd_check,
        "export": cmd_export,
    }[args.command]
    try:
        return handler(history, args)
    except BrokenPipeError:
        # downstream closed the pipe (e.g. `repro-obs diff ... | head`)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
