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
``/healthz``  GET     liveness + uptime + pending-job count
``/metrics``  GET     OpenMetrics exposition of every repro.obs metric
``/v1/stats`` GET     JSON counter snapshot (requests, coalesce, store)
``/v1/sweep`` POST    Figure 7–10 sweep rows + fitted first-order model
``/v1/plan``  POST    §5.2.1 subbatch choice + Roofline projection
``/v1/lint``  POST    repro.check diagnostics over registry models
``/v1/exhibit`` POST  one paper table/figure as structured cells
``/v1/jobs``  POST    async submit (202 + job id); GET /v1/jobs/<id>
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
* **async jobs** (:class:`~repro.serve.jobs.JobQueue`) — slow sweeps
  run on worker threads behind a submit → 202 → poll lifecycle,
  journaled through :class:`~repro.exec.journal.RunJournal` so a
  killed server resumes in-flight jobs under ``--resume``;
* **graceful drain** — SIGTERM/SIGINT reuse
  :class:`~repro.exec.signals.GracefulShutdown`: stop accepting, drain
  the queue, checkpoint the journal, exit 0 (or 3 when jobs remain);
* **observability** — per-endpoint request counters and latency
  histograms plus coalesce/store/job counters in :mod:`repro.obs`,
  served verbatim on ``/metrics`` via ``openmetrics_text``;
* **overload resilience** — one compute gate, as wide as the number
  of computes that can run at once, with a bounded admission queue
  sheds E-BUSY 429 (+ Retry-After) instead of queueing unboundedly
  (:mod:`~repro.serve.admission`); client
  deadlines (``?deadline_ms=`` / ``X-Repro-Deadline-Ms``) propagate
  into the analysis kernels and stop work with an E-DEADLINE 504
  carrying partial progress (:mod:`repro.deadline`); repeated compute
  crashes open a per-endpoint circuit breaker
  (:mod:`~repro.serve.breaker`); ``--compute-workers N`` moves cold
  computes onto a supervised process pool so a crash is a structured
  503, not a dead listener; and a seeded chaos harness
  (:mod:`~repro.serve.chaos`, ``--chaos-plan``) injects faults
  deterministically for the resilience suite.
"""

from .service import AnalysisService, Endpoint, ENDPOINTS, \
    snapshot_exhibit
from .jobs import Job, JobQueue
from .admission import AdmissionController, Bulkhead, TokenBucket
from .breaker import BreakerBoard, BreakerConfig, CircuitBreaker
from .chaos import ChaosController, ChaosInjectedError, ChaosPlan
from .server import ReproServer, ServeConfig, running_server

__all__ = [
    "AnalysisService", "Endpoint", "ENDPOINTS", "snapshot_exhibit",
    "Job", "JobQueue",
    "AdmissionController", "Bulkhead", "TokenBucket",
    "BreakerBoard", "BreakerConfig", "CircuitBreaker",
    "ChaosController", "ChaosInjectedError", "ChaosPlan",
    "ReproServer", "ServeConfig", "running_server",
]
