"""repro.serve — analysis-as-a-service over the pipeline.

Every answer used to cost a full CLI process: ``repro-report``,
``repro-lint``, and ``python -m repro.artifact`` each re-import the
package, re-compile tapes, and re-warm the result store before doing
any work.  This package keeps all of that hot in one long-running
process and serves the pipeline's query surfaces as JSON over HTTP
(stdlib only — ``http.server.ThreadingHTTPServer``, no third-party
dependencies):

============  ======  ==============================================
route         method  answers
============  ======  ==============================================
``/healthz``  GET     liveness + uptime + compute-gate state
``/metrics``  GET     OpenMetrics exposition of every repro.obs metric
``/v1/stats`` GET     JSON counter snapshot (requests, coalesce, store)
``/v1/sweep`` POST    Figure 7–10 sweep rows + fitted first-order model
``/v1/plan``  POST    §5.2.1 subbatch choice + Roofline projection
``/v1/lint``  POST    repro.check diagnostics over registry models
``/v1/exhibit`` POST  one paper table/figure as structured cells
============  ======  ==============================================

Production concerns are the point:

* **request coalescing** (:class:`~repro.serve.service.AnalysisService`)
  — identical in-flight queries share one computation, keyed by the
  same content keys (source digest + bindings + version) the result
  store uses, and every caller receives byte-identical response
  bodies;
* **warm results** — response bytes are memoized in the
  content-addressed :class:`~repro.exec.store.ResultStore`, so a
  repeated query is a disk hit instead of a recomputation;
* **graceful shutdown** — SIGTERM/SIGINT reuse
  :class:`~repro.exec.signals.GracefulShutdown`: stop accepting, close
  the worker pool, exit 0; a restarted server answers finished
  queries from the store;
* **observability** — per-endpoint request counters and latency
  histograms plus coalesce/store counters in :mod:`repro.obs`,
  served verbatim on ``/metrics`` via ``openmetrics_text``;
* **overload resilience** — one compute gate, as wide as the number
  of computes that can run at once, with a bounded admission queue
  sheds E-BUSY 429 (+ Retry-After) instead of queueing unboundedly
  (:mod:`~repro.serve.admission`); client
  deadlines (``?deadline_ms=`` / ``X-Repro-Deadline-Ms``) propagate
  into the analysis kernels and stop work with an E-DEADLINE 504
  carrying partial progress (:mod:`repro.deadline`);
  ``--compute-workers N`` moves cold computes onto a supervised
  process pool so a crash is a structured 503, not a dead listener,
  and the pool rebuilds behind its backoff gate (the server's one
  fault backoff: a failing compute is answered per request and never
  sheds other inputs); and a seeded chaos harness
  (:mod:`~repro.serve.chaos`, ``--chaos-plan``) injects faults
  deterministically for the resilience suite.
"""

from .service import AnalysisService, Endpoint, ENDPOINTS, \
    snapshot_exhibit
from .admission import AdmissionController, Bulkhead
from .chaos import ChaosController, ChaosInjectedError, ChaosPlan
from .server import ReproServer, ServeConfig, running_server

__all__ = [
    "AnalysisService", "Endpoint", "ENDPOINTS", "snapshot_exhibit",
    "AdmissionController", "Bulkhead",
    "ChaosController", "ChaosInjectedError", "ChaosPlan",
    "ReproServer", "ServeConfig", "running_server",
]
