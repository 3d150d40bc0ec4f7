"""Exporters: Chrome trace JSON, OpenMetrics, tables.

Three consumers, three formats:

* :func:`chrome_trace` / :func:`write_chrome_trace` — the Chrome
  ``trace_events`` JSON object format (``{"traceEvents": [...]}``),
  loadable in ``chrome://tracing`` or https://ui.perfetto.dev.  Spans
  become complete (``"ph": "X"``) events with microsecond timestamps
  relative to the earliest span, laid out on one *process track per
  pid* (worker spans merged by the exec engine keep their worker pid,
  so a ``--max-workers 4`` trace shows four worker tracks under the
  parent).  Dispatch/worker span pairs tagged with a flow id are
  linked by ``"s"``/``"f"`` flow events (the parent→child arrows in
  Perfetto).  Counters are appended as ``"C"`` events; the full
  metrics snapshot rides along under the (spec-permitted) extra
  ``"metrics"`` key.  Event order is deterministic: metadata sorted by
  (pid, tid, name), then timed events by (ts, pid, tid, ph, name) —
  stable keys so structurally-equal runs export structurally-equal
  traces.
* :func:`openmetrics_text` / :func:`write_openmetrics` — the
  OpenMetrics / Prometheus text exposition format, one family per
  registered instrument (histograms with cumulative ``le`` buckets).
  ROADMAP item 1's ``/metrics`` endpoint serves this verbatim.
* :func:`span_summary_table` / :func:`metrics_summary_table` — ASCII
  tables rendered through :class:`repro.reports.common.Table` (CSV via
  its ``to_csv``), aggregating spans by (category, name); histogram
  rows show interpolated p50/p95/p99 instead of raw bucket dumps.

``repro.reports.common`` is imported lazily inside the table builders:
the reports package pulls in the whole analysis pipeline, which is
itself instrumented with :mod:`repro.obs` — a module-level import here
would be circular.
"""

from __future__ import annotations

import json
import os
import re
from typing import Dict, List, Optional, Sequence

from . import metrics as _metrics
from . import tracer as _tracer
from .metrics import bucket_edges
from .tracer import Span

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "openmetrics_text",
    "write_openmetrics",
    "span_summary_table",
    "metrics_summary_table",
]


def _clean_args(span: Span) -> Dict[str, object]:
    args = dict(span.args)
    if span.error is not None:
        args["error"] = span.error
    return args


def chrome_trace(span_list: Optional[Sequence[Span]] = None,
                 registry: Optional[_metrics.MetricsRegistry] = None
                 ) -> dict:
    """Build the ``trace_events`` JSON object for the recorded spans."""
    if span_list is None:
        span_list = _tracer.TRACER.spans()
    if registry is None:
        registry = _metrics.REGISTRY
    parent_pid = os.getpid()

    # one process track per pid; the parent sorts first
    pids = sorted({s.pid for s in span_list} | {parent_pid})
    meta: List[dict] = []
    for index, pid in enumerate(
            sorted(pids, key=lambda p: (p != parent_pid, p))):
        name = ("repro analysis pipeline" if pid == parent_pid
                else f"repro worker (pid {pid})")
        meta.append({
            "ph": "M", "pid": pid, "tid": 0, "name": "process_name",
            "args": {"name": name},
        })
        meta.append({
            "ph": "M", "pid": pid, "tid": 0,
            "name": "process_sort_index",
            "args": {"sort_index": index},
        })
    thread_names = {}
    for span in span_list:
        thread_names.setdefault((span.pid, span.thread_id),
                                span.thread_name)
    for (pid, tid), name in sorted(thread_names.items()):
        meta.append({
            "ph": "M", "pid": pid, "tid": tid, "name": "thread_name",
            "args": {"name": name},
        })

    base_ns = min((s.start_ns for s in span_list), default=0)
    timed: List[dict] = []
    last_us = 0.0
    for span in span_list:
        ts = round((span.start_ns - base_ns) / 1000.0, 3)
        dur = round(span.duration_ns / 1000.0, 3)
        last_us = max(last_us, ts + dur)
        timed.append({
            "ph": "X",
            "name": span.name,
            "cat": span.category or "default",
            "ts": ts,
            "dur": dur,
            "pid": span.pid,
            "tid": span.thread_id,
            "args": _clean_args(span),
        })
        # dispatch→worker arrows: the engine tags the parent-side task
        # span flow_role="out" and the worker root span flow_role="in"
        # with the same flow id
        flow = span.args.get("flow")
        role = span.args.get("flow_role")
        if flow is not None and role in ("out", "in"):
            event = {
                "ph": "s" if role == "out" else "f",
                "id": flow,
                "name": "exec.dispatch",
                "cat": "flow",
                "ts": ts,
                "pid": span.pid,
                "tid": span.thread_id,
            }
            if role == "in":
                event["bp"] = "e"
            timed.append(event)

    counters: List[dict] = []
    for name, metric in registry.items():
        if isinstance(metric, _metrics.Counter):
            counters.append({
                "ph": "C", "name": name, "cat": "metric",
                "ts": round(last_us, 3), "pid": parent_pid, "tid": 0,
                "args": {"value": metric.value},
            })

    # deterministic event order (stable sort keys): metadata, then
    # timed events, then counter tracks
    meta.sort(key=lambda e: (e["pid"], e["tid"], e["name"]))
    timed.sort(key=lambda e: (e["ts"], e["pid"], e["tid"], e["ph"],
                              e["name"]))
    counters.sort(key=lambda e: e["name"])
    return {
        "traceEvents": meta + timed + counters,
        "displayTimeUnit": "ms",
        "metrics": registry.snapshot(),
    }


def write_chrome_trace(path: str,
                       span_list: Optional[Sequence[Span]] = None,
                       registry: Optional[_metrics.MetricsRegistry] = None
                       ) -> str:
    """Write :func:`chrome_trace` output to ``path``; returns the path."""
    from ..ioutil import atomic_write_text

    payload = chrome_trace(span_list, registry)
    atomic_write_text(path, json.dumps(payload, indent=1) + "\n")
    return path


_METRIC_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _openmetrics_name(name: str) -> str:
    """Dotted metric name → OpenMetrics sample name."""
    clean = _METRIC_NAME_RE.sub("_", name)
    if not clean or not (clean[0].isalpha() or clean[0] in "_:"):
        clean = "_" + clean
    return "repro_" + clean


def _openmetrics_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    return repr(int(value)) if float(value).is_integer() else repr(value)


def openmetrics_text(registry: Optional[_metrics.MetricsRegistry] = None
                     ) -> str:
    """OpenMetrics / Prometheus text exposition of every instrument.

    Counters become ``<name>_total`` counter families, gauges become
    gauge families, histograms become histogram families with
    cumulative ``le`` buckets at the log2 edges (buckets above the
    highest populated one are elided; ``+Inf``, ``_sum`` and
    ``_count`` always present).  The output ends with the ``# EOF``
    terminator, so a ``/metrics`` endpoint can serve it verbatim.
    """
    if registry is None:
        registry = _metrics.REGISTRY
    lines: List[str] = []
    for name, metric in registry.items():
        om = _openmetrics_name(name)
        if isinstance(metric, _metrics.Counter):
            lines.append(f"# TYPE {om} counter")
            lines.append(f"{om}_total {_openmetrics_value(metric.value)}")
        elif isinstance(metric, _metrics.Gauge):
            lines.append(f"# TYPE {om} gauge")
            lines.append(f"{om} {_openmetrics_value(metric.value)}")
        else:
            lines.append(f"# TYPE {om} histogram")
            top = max((i for i, n in enumerate(metric.buckets) if n),
                      default=-1)
            cumulative = 0
            for index in range(top + 1):
                cumulative += metric.buckets[index]
                edge = _openmetrics_value(bucket_edges(index)[1])
                lines.append(
                    f'{om}_bucket{{le="{edge}"}} {cumulative}')
            lines.append(f'{om}_bucket{{le="+Inf"}} {metric.count}')
            lines.append(f"{om}_sum {_openmetrics_value(metric.total)}")
            lines.append(f"{om}_count {metric.count}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def write_openmetrics(path: str,
                      registry: Optional[_metrics.MetricsRegistry] = None
                      ) -> str:
    """Write :func:`openmetrics_text` to ``path``; returns the path."""
    from ..ioutil import atomic_write_text

    atomic_write_text(path, openmetrics_text(registry))
    return path


def span_summary_table(span_list: Optional[Sequence[Span]] = None):
    """Aggregate spans by (category, name) into a rendered Table."""
    from ..reports.common import Table, si

    if span_list is None:
        span_list = _tracer.TRACER.spans()
    agg: Dict[tuple, List[float]] = {}
    for span in span_list:
        key = (span.category or "default", span.name)
        entry = agg.setdefault(key, [0, 0.0, 0.0, 0])
        entry[0] += 1
        ms = span.duration_ns / 1e6
        entry[1] += ms
        entry[2] = max(entry[2], ms)
        entry[3] += 1 if span.error else 0

    rows = []
    for (cat, name), (count, total, peak, errors) in sorted(
            agg.items(), key=lambda kv: -kv[1][1]):
        rows.append([
            cat, name, str(count),
            f"{total:.3f}", f"{total / count:.3f}", f"{peak:.3f}",
            str(errors) if errors else "",
        ])
    return Table(
        title="Span summary (repro.obs)",
        headers=["Category", "Span", "Count", "Total ms", "Mean ms",
                 "Max ms", "Errors"],
        rows=rows,
        notes=[f"{len(span_list)} spans; "
               "load the --trace JSON in chrome://tracing or Perfetto "
               "for the full hierarchy"],
    )


def metrics_summary_table(registry: Optional[_metrics.MetricsRegistry]
                          = None):
    """Every registered metric as one row of a rendered Table."""
    from ..reports.common import Table, si

    if registry is None:
        registry = _metrics.REGISTRY
    rows = []
    for name, metric in registry.items():
        if isinstance(metric, _metrics.Counter):
            rows.append([name, "counter", si(metric.value), "", ""])
        elif isinstance(metric, _metrics.Gauge):
            rows.append([name, "gauge", si(metric.value),
                         f"updates={metric.updates}", ""])
        else:
            if metric.count:
                detail = (f"mean={si(metric.mean)} "
                          f"min={si(metric.min)} max={si(metric.max)}")
                pct = _metrics.histogram_percentiles(
                    name, registry=registry) or {}
                tail = " ".join(
                    f"p{int(q * 100)}~{si(v)}"
                    for q, v in sorted(pct.items())
                )
            else:
                detail, tail = "", ""
            rows.append([name, "histogram", si(metric.count), detail,
                         tail])
    return Table(
        title="Metrics summary (repro.obs)",
        headers=["Metric", "Type", "Value/Count", "Detail", "Tail"],
        rows=rows,
    )
