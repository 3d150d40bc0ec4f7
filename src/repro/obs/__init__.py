"""repro.obs — pipeline-wide tracing and metrics (observability).

The paper's whole method is measurement: TFprof-style per-op
FLOPs/bytes/time breakdowns of training steps (§4.1).  This package
points the same discipline at the analysis pipeline itself, so a
Table/Figure regeneration is no longer a black box:

* **spans** (:mod:`.tracer`) — hierarchical timed regions on a
  monotonic clock, recorded per thread, off by default with ~zero
  overhead when disabled::

      from repro import obs

      obs.enable()
      with obs.span("sweep.point", "sweep", domain="word_lm", size=512):
          ...
      obs.write_chrome_trace("trace.json")   # chrome://tracing/Perfetto

* **metrics** (:mod:`.metrics`) — always-on counters, gauges, and
  log2-bucket histograms addressable by dotted names::

      _HITS = obs.counter("analysis.sweep.cache.hit")
      _HITS.inc()

* **exporters** (:mod:`.export`) — Chrome ``trace_events`` JSON,
  OpenMetrics text, and ASCII/CSV summary tables built on
  :mod:`repro.reports.common`.

The CLI surfaces all of it: ``repro-report fig10 --trace t.json
--metrics`` traces a full Figure-10 regeneration;
:func:`summary` is the programmatic equivalent.
"""

from .metrics import (
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    gauge,
    histogram,
    histogram_percentiles,
    reset,
    restore_state,
    save_state,
    snapshot,
)
from .tracer import (
    TRACER,
    Span,
    Tracer,
    current_span,
    disable,
    enable,
    is_enabled,
    monotonic_ns,
    span,
    spans,
    trace,
)
from .export import (
    chrome_trace,
    metrics_summary_table,
    openmetrics_text,
    span_summary_table,
    write_chrome_trace,
    write_openmetrics,
)
from .history import (
    RunHistory,
    RunRecorder,
    history_path,
    span_rollup,
)

__all__ = [
    # tracer
    "Span", "Tracer", "TRACER", "span", "trace", "enable", "disable",
    "is_enabled", "spans", "current_span", "monotonic_ns",
    # metrics
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "REGISTRY",
    "counter", "gauge", "histogram", "snapshot",
    "histogram_percentiles", "reset", "save_state", "restore_state",
    # export
    "chrome_trace", "write_chrome_trace",
    "span_summary_table", "metrics_summary_table",
    "openmetrics_text", "write_openmetrics",
    # history
    "RunHistory", "RunRecorder", "history_path", "span_rollup",
    # module-level helpers
    "summary", "clear",
]


def clear() -> None:
    """Reset recorded spans and zero every metric (instruments stay
    registered, so summaries keep their rows)."""
    TRACER.clear()
    REGISTRY.clear()


def summary() -> str:
    """Rendered span + metrics summary of everything recorded so far.

    The programmatic twin of ``repro-report ... --metrics``: returns
    the ASCII tables as one string (use :func:`snapshot` /
    :func:`spans` for structured data instead).
    """
    parts = []
    if TRACER.spans():
        parts.append(span_summary_table().render())
    parts.append(metrics_summary_table().render())
    return "\n\n".join(parts)
