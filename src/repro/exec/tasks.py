"""Picklable task payload functions + cache-key builders.

Everything the artifact pipeline ships to pool workers lives here as a
module-level function (so it pickles by reference), together with the
key builders that make those payloads content-addressable:

* :func:`artifact_config` — one ``output_<domain>_<size>.txt`` report
  plus its summary-table cells (the per-(model, table) unit);
* :func:`report_exhibit` — one rendered paper table/figure.

Keys combine the bindings (exhibit name, domain, size, subbatch) with
the package version and the source digest that
:func:`repro.exec.store.content_key` folds into every key: no key
builder constructs or hashes a graph.
"""

from __future__ import annotations

import os
import pickle
from typing import Any, Callable, Dict, List, Mapping, Optional, \
    Sequence, Tuple

from ..errors import error_context
from ..models.registry import DOMAINS, build_symbolic
from .store import content_key

__all__ = [
    "artifact_config", "artifact_config_key",
    "report_exhibit", "report_exhibit_key",
    "registry_fingerprint",
    "run_traced",
]

def registry_fingerprint(keys: Optional[Sequence[str]] = None) -> str:
    """One digest over several domains (default: all five).

    Builds no graph: every domain's graph is a function of the source
    tree, which :func:`~repro.exec.store.content_key` already folds in
    as the :func:`~repro.exec.store.source_digest`.
    """
    keys = list(keys) if keys is not None else sorted(DOMAINS)
    return content_key("registry", keys)


# -- artifact config units ---------------------------------------------------

def artifact_config(key: str, size: float) -> dict:
    """Worker payload: full analysis of one (domain, size) config.

    Returns the rendered per-model report and the gathered-summary row
    cells; the parent writes files, so output bytes and ordering are
    identical no matter which process produced the payload.
    """
    from ..analysis.counters import StepCounts
    from ..reports.common import si
    from ..reports.describe import describe_model

    with error_context(model=key, size=size):
        model = build_symbolic(key)
        subbatch = DOMAINS[key].subbatch
        report = describe_model(model, size=size, subbatch=subbatch)

        counts = StepCounts(model)
        bindings = counts.bind(size, subbatch)
        ct = counts.step_flops.evalf(bindings)
        at = counts.step_bytes.evalf(bindings)
        summary_row = [
            DOMAINS[key].display,
            f"{size:g}",
            si(counts.params.evalf(bindings)),
            si(ct) + "FLOP",
            si(at) + "B",
            f"{ct / at:.1f}",
        ]
        return {"report": report, "summary_row": summary_row}


def artifact_config_key(key: str, size: float) -> str:
    return content_key("artifact_config", key, float(size),
                       DOMAINS[key].subbatch)


def artifact_payload_ok(payload: object) -> bool:
    """Corrupt-payload gate for :func:`artifact_config` results."""
    return (isinstance(payload, dict)
            and isinstance(payload.get("report"), str)
            and isinstance(payload.get("summary_row"), list)
            and len(payload["summary_row"]) == 6)


# -- report exhibits ---------------------------------------------------------

def report_exhibit(name: str):
    """Worker payload: one generated paper exhibit (Table/Figure)."""
    from .. import obs
    from ..reports import ALL_REPORTS

    # one span per table/figure, nested under the engine's task span
    # when running serially (worker-process spans stay in the worker)
    with error_context(exhibit=name):
        with obs.span(f"report.{name}", "report"):
            with obs.span("report.generate", "report", exhibit=name):
                return ALL_REPORTS[name]()


def report_exhibit_key(name: str) -> str:
    return content_key("report_exhibit", name)


# -- cross-process observability shim ----------------------------------------

def _picklable_error(error: BaseException) -> BaseException:
    """The error itself if it survives a pickle round trip, else a
    summary that does (the payload must cross the pool boundary)."""
    try:
        pickle.loads(pickle.dumps(error))
        return error
    except Exception:
        return RuntimeError(
            f"{type(error).__name__}: {error} "
            "(original exception was not picklable)"
        )


def run_traced(ctx: Mapping[str, Any], fn: Callable[..., Any],
               args: Tuple, kwargs: Mapping[str, Any]) -> Dict[str, Any]:
    """Worker-side wrapper: run one task under local observability.

    The engine ships every pool task through this shim with a *trace
    context* — run id, parent span id, enabled flag, task id, attempt,
    flow id.  The worker runs a buffering tracer (cleared per task,
    records exported as plain dicts) and a delta-capturing metrics
    registry (baseline snapshot at task start), and returns the
    completed spans and metric deltas *alongside* the result::

        {"pid": ..., "value"/"error": ...,
         "spans": [Span.to_record()...], "metrics": delta}

    Exceptions are caught and shipped home in the payload (made
    picklable first), so a failing task still contributes its spans
    and counts to the merged trace.  Metric deltas are captured even
    when tracing is disabled — metrics are always on, and without the
    delta every count a worker accumulates would die with its process.
    """
    from .. import obs

    enabled = bool(ctx.get("enabled"))
    tracer = obs.TRACER
    baseline = obs.REGISTRY.state()
    if enabled:
        # fork-started workers inherit the parent's recorded spans and
        # enabled flag; this worker traces one task at a time, so a
        # clear-at-start / drain-at-end cycle is safe
        tracer.clear()
        tracer.enable()
    value: Any = None
    error: Optional[BaseException] = None
    try:
        if enabled:
            with obs.span("exec.worker_task", "exec",
                          task=ctx.get("task"), run=ctx.get("run_id"),
                          attempt=ctx.get("attempt"),
                          flow=ctx.get("flow"), flow_role="in"):
                value = fn(*args, **kwargs)
        else:
            value = fn(*args, **kwargs)
    except Exception as exc:
        error = _picklable_error(exc)
        value = None
    records: List[Dict[str, Any]] = []
    if enabled:
        tracer.disable()
        records = [s.to_record() for s in tracer.spans()]
        tracer.clear()
    return {
        "pid": os.getpid(),
        "value": value,
        "error": error,
        "spans": records,
        "metrics": obs.REGISTRY.delta_since(baseline),
    }
