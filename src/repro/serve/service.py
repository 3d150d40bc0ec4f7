"""The query surface: validated endpoints + request coalescing.

:class:`AnalysisService` is the in-process core of the server — the
HTTP layer is a thin shell over :meth:`AnalysisService.query_bytes`.
Each endpoint is a (normalize, compute) pair:

* ``normalize`` validates a request body and resolves defaults into a
  **canonical parameter dict** (malformed input raises
  :class:`~repro.errors.BindingError`, which the HTTP layer renders as
  structured E-BIND JSON with status 400);
* the canonical params are folded into a **content key** via
  :func:`repro.exec.store.content_key`, which adds the source digest
  of the ``repro`` package — the same keying discipline as
  :mod:`repro.exec.tasks`, so cache entries invalidate when formulas
  or graphs change;
* ``compute`` produces a JSON-able result dict, serialized once to
  canonical bytes.

**Coalescing**: when N identical queries are in flight, exactly one
thread computes; the rest wait on the leader and receive the *same
bytes object* (``serve.coalesce.hit`` counts the followers,
``serve.query.computed`` counts actual computations).  Distinct keys
never wait on each other's map entry — the registry lock is only held
to look up / publish in-flight entries, never across a computation —
so mixed query loads cannot deadlock.  Completed bytes are memoized in
the content-addressed :class:`~repro.exec.store.ResultStore`
(``exec.store.hit/miss`` then measure the warm path).

**Resilience** (wired by :class:`ReproServer`): cold computes pass
the **compute gate**, the one :class:`~repro.serve.admission.Bulkhead`
of the service's :class:`~repro.serve.admission.AdmissionController`
(bounded concurrency + bounded queue, E-BUSY shed beyond it).  The
gate's width is the number of computes that can run at once: 1
in-process, because the pipeline's memoized caches (sweep LRU, model
registry, tape caches) predate multithreading, and the worker count
with a :class:`~repro.exec.engine.SupervisedPool` attached, whose
worker processes turn a segfault into a structured E-EXEC 503 instead
of killing the listener; the pool's restart gate is the server's only
fault backoff.  A failing compute is answered per request (its own
structured code, or E-EXEC 503 for a foreign exception) and never
sheds other inputs: every compute is deterministic in its
content-keyed input, so one input's failure says nothing about
another's.  A service built without a controller gets
its own, so standalone computes are serialized too.  The **store
lookup happens before any of that**, so warm hits never queue behind
cold computes.  Requests carrying a :class:`~repro.deadline.
Deadline` propagate it into the computation (ambient in-process,
explicit remaining-budget across the pool boundary) and bound every
wait on it, the gate's queue included; ``serve.deadline.met/
exceeded`` count the outcomes.
"""

from __future__ import annotations

import json
import threading
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from .. import obs
from ..deadline import Deadline, deadline_scope
from ..errors import (BindingError, DeadlineError, ReproError,
                      WorkerCrashError, did_you_mean)
from ..exec.store import ResultStore, content_key
from .admission import AdmissionController

__all__ = ["AnalysisService", "Endpoint", "ENDPOINTS",
           "snapshot_exhibit", "canonical_json"]

_COALESCE_HIT = obs.counter("serve.coalesce.hit")
_COALESCE_MISS = obs.counter("serve.coalesce.miss")
_COMPUTED = obs.counter("serve.query.computed")
_QUERIES = obs.counter("serve.query.requests")
_INFLIGHT = obs.gauge("serve.coalesce.inflight")
_DEADLINE_MET = obs.counter("serve.deadline.met")
_DEADLINE_EXCEEDED = obs.counter("serve.deadline.exceeded")
_STORE_CORRUPT = obs.counter("serve.store.corrupt_dropped")


def canonical_json(payload: Any) -> bytes:
    """Deterministic JSON bytes: key-sorted, compact, UTF-8.

    Every response body goes through this one serializer so identical
    results are byte-identical — the property the coalescing and
    differential tests assert.
    """
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


# -- validation helpers ------------------------------------------------------

def _reject(message: str, hint: Optional[str] = None) -> None:
    raise BindingError(message, hint=hint)


def _expect_mapping(params: Any, endpoint: str) -> Mapping:
    if not isinstance(params, Mapping):
        _reject(
            f"/v1/{endpoint} request body must be a JSON object, got "
            f"{type(params).__name__}",
            hint='send e.g. {"domain": "word_lm"}',
        )
    return params


def _check_fields(params: Mapping, allowed: Tuple[str, ...],
                  endpoint: str) -> None:
    for field in params:
        if field not in allowed:
            _reject(
                f"unknown field {field!r} for /v1/{endpoint}; "
                f"allowed: {sorted(allowed)}",
                hint=did_you_mean(str(field), allowed),
            )


def _domain_param(params: Mapping) -> str:
    from ..models.registry import DOMAINS

    domain = params.get("domain")
    if domain is None:
        _reject("missing required field 'domain'",
                hint=f"one of {sorted(DOMAINS)}")
    if domain not in DOMAINS:
        _reject(f"unknown domain {domain!r}; available: "
                f"{sorted(DOMAINS)}",
                hint=did_you_mean(str(domain), DOMAINS))
    return domain


def _positive_number(params: Mapping, field: str,
                     default: Optional[float] = None,
                     integer: bool = False) -> Optional[float]:
    value = params.get(field, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _reject(f"field {field!r} must be a number, got "
                f"{type(value).__name__}")
    if value <= 0:
        _reject(f"field {field!r} must be positive, got {value!r}")
    if integer:
        if float(value) != int(value):
            _reject(f"field {field!r} must be an integer, got "
                    f"{value!r}")
        return int(value)
    return float(value)


def _string_list(params: Mapping, field: str) -> Optional[List[str]]:
    value = params.get(field)
    if value is None:
        return None
    if (not isinstance(value, (list, tuple))
            or not all(isinstance(v, str) for v in value)):
        _reject(f"field {field!r} must be a list of strings")
    return list(value)


# -- endpoint: /v1/sweep -----------------------------------------------------

_MAX_SWEEP_SIZES = 4096


def _normalize_sweep(params: Mapping) -> Dict[str, Any]:
    from ..models.registry import get_domain

    params = _expect_mapping(params, "sweep")
    _check_fields(params, ("domain", "subbatch", "sizes",
                           "include_footprint"), "sweep")
    domain = _domain_param(params)
    entry = get_domain(domain)
    subbatch = _positive_number(params, "subbatch", entry.subbatch,
                                integer=True)
    sizes = params.get("sizes")
    if sizes is None:
        sizes = list(entry.sweep_sizes)
    if not isinstance(sizes, (list, tuple)) or len(sizes) < 2:
        # sweep_domain fits a first-order model over the series and
        # needs at least two points; reject here so the caller gets
        # E-BIND instead of an internal fit error.
        _reject("field 'sizes' must be a list of at least two "
                "positive numbers")
    if len(sizes) > _MAX_SWEEP_SIZES:
        _reject(f"field 'sizes' is capped at {_MAX_SWEEP_SIZES} "
                f"points per query, got {len(sizes)}",
                hint="split the series across several queries")
    clean_sizes = []
    for value in sizes:
        if isinstance(value, bool) or not isinstance(value,
                                                     (int, float)) \
                or value <= 0:
            _reject(f"sweep sizes must be positive numbers, got "
                    f"{value!r}")
        clean_sizes.append(float(value))
    include_footprint = params.get("include_footprint", True)
    if not isinstance(include_footprint, bool):
        _reject("field 'include_footprint' must be a boolean")
    return {"domain": domain, "subbatch": subbatch,
            "sizes": clean_sizes,
            "include_footprint": include_footprint}


def _model_dict(model) -> Optional[Dict[str, Any]]:
    if model is None:
        return None
    return {"domain": model.domain, "gamma": float(model.gamma),
            "lam": float(model.lam), "mu": float(model.mu),
            "delta": (None if model.delta is None
                      else float(model.delta)),
            "phi": float(model.phi)}


def _compute_sweep(params: Dict[str, Any]) -> Dict[str, Any]:
    from ..analysis.sweep import sweep_domain

    result = sweep_domain(
        params["domain"], subbatch=params["subbatch"],
        sizes=tuple(params["sizes"]),
        include_footprint=params["include_footprint"],
    )
    return {
        "domain": result.domain,
        "subbatch": result.subbatch,
        "rows": [asdict(row) for row in result.rows],
        "fitted": _model_dict(result.fitted),
        "symbolic": _model_dict(result.symbolic),
    }


# -- endpoint: /v1/plan ------------------------------------------------------

def _normalize_plan(params: Mapping) -> Dict[str, Any]:
    from ..planner.subbatch import SOLVE_BRACKET

    params = _expect_mapping(params, "plan")
    _check_fields(params, ("domain", "params", "tolerance",
                           "max_subbatch"), "plan")
    domain = _domain_param(params)
    n_params = _positive_number(params, "params")
    if n_params is None:
        from ..scaling.project import project_all

        n_params = float(project_all()[domain].target_params)
    tolerance = _positive_number(params, "tolerance", 0.05)
    if tolerance >= 1.0:
        _reject(f"field 'tolerance' must be in (0, 1), got "
                f"{tolerance!r}")
    # choose_subbatch states and enforces the cap rule (E-BIND)
    max_subbatch = _positive_number(params, "max_subbatch",
                                    SOLVE_BRACKET[1])
    return {"domain": domain, "params": n_params,
            "tolerance": tolerance, "max_subbatch": max_subbatch}


def _compute_plan(params: Dict[str, Any]) -> Dict[str, Any]:
    from ..analysis.sweep import sweep_domain
    from ..hardware.accelerator import V100_LIKE
    from ..hardware.roofline import roofline_time
    from ..planner.subbatch import choose_subbatch

    domain = params["domain"]
    n_params = params["params"]
    model = sweep_domain(domain).symbolic
    choice = choose_subbatch(model, n_params, V100_LIKE,
                             tolerance=params["tolerance"],
                             max_subbatch=params["max_subbatch"])
    b = choice.chosen
    ct = float(model.step_flops(n_params, b))
    at = float(model.step_bytes(n_params, b))
    rt = roofline_time(ct, at, V100_LIKE)
    footprint = (float(model.footprint_bytes(n_params, b))
                 if model.delta is not None else None)
    return {
        "domain": domain,
        "params": n_params,
        "accelerator": V100_LIKE.name,
        "choice": asdict(choice),
        "step_flops": ct,
        "step_bytes": at,
        "step_time_s": float(rt.step_time),
        "compute_time_s": float(rt.compute_time),
        "memory_time_s": float(rt.memory_time),
        "footprint_bytes": footprint,
    }


# -- endpoint: /v1/lint ------------------------------------------------------

def _normalize_lint(params: Mapping) -> Dict[str, Any]:
    from ..check.diagnostics import check_lint_filter, check_rule_codes
    from ..models.registry import DOMAINS

    params = _expect_mapping(params, "lint")
    _check_fields(params, ("domains", "select", "ignore"), "lint")
    domains = _string_list(params, "domains")
    if domains is not None:
        for key in domains:
            if key not in DOMAINS:
                _reject(f"unknown domain {key!r}; available: "
                        f"{sorted(DOMAINS)}",
                        hint=did_you_mean(key, DOMAINS))
        domains = sorted(set(domains))
    select = _string_list(params, "select")
    ignore = _string_list(params, "ignore") or []
    check_rule_codes(select, "select")
    check_rule_codes(ignore, "ignore")
    check_lint_filter(select, ignore, full_registry=not domains)
    return {"domains": domains, "select": select, "ignore": ignore}


def _compute_lint(params: Dict[str, Any]) -> Dict[str, Any]:
    from ..check import ERROR, INFO, WARNING
    from ..check.driver import lint_registry

    per_domain = lint_registry(
        params["domains"],
        select=params["select"],
        ignore=tuple(params["ignore"]),
    )
    counts = {ERROR: 0, WARNING: 0, INFO: 0}
    for diagnostics in per_domain.values():
        for d in diagnostics:
            counts[d.severity] += 1
    return {
        "graphs": {key: [d.to_dict() for d in diagnostics]
                   for key, diagnostics in per_domain.items()},
        "summary": counts,
    }


# -- endpoint: /v1/exhibit ---------------------------------------------------

def snapshot_exhibit(report: Any) -> Dict[str, Any]:
    """Plain-JSON cells of a Table or Figure report object.

    The shape matches the golden suite's snapshots exactly
    (``tests/golden/_compare.snapshot_exhibit``), so the differential
    tests can diff a served payload against an in-process regeneration
    with the same tolerance helpers.
    """
    from ..reports import Figure, Table

    if isinstance(report, Table):
        return {
            "kind": "table",
            "title": report.title,
            "headers": [str(h) for h in report.headers],
            "rows": [[str(c) for c in row] for row in report.rows],
            "notes": [str(n) for n in report.notes],
        }
    if isinstance(report, Figure):
        return {
            "kind": "figure",
            "title": report.title,
            "x_label": report.x_label,
            "y_label": report.y_label,
            "series": [
                {"label": s.label,
                 "x": [float(v) for v in s.x],
                 "y": [float(v) for v in s.y]}
                for s in report.series
            ],
        }
    raise TypeError(f"cannot snapshot {type(report).__name__}")


def _normalize_exhibit(params: Mapping) -> Dict[str, Any]:
    from ..reports import ALL_REPORTS

    params = _expect_mapping(params, "exhibit")
    _check_fields(params, ("name",), "exhibit")
    name = params.get("name")
    if name is None:
        _reject("missing required field 'name'",
                hint=f"one of {sorted(ALL_REPORTS)}")
    if name not in ALL_REPORTS:
        _reject(f"unknown exhibit {name!r}; available: "
                f"{sorted(ALL_REPORTS)}",
                hint=did_you_mean(str(name), ALL_REPORTS))
    return {"name": name}


def _compute_exhibit(params: Dict[str, Any]) -> Dict[str, Any]:
    from ..reports import ALL_REPORTS

    return snapshot_exhibit(ALL_REPORTS[params["name"]]())


# -- the endpoint registry ---------------------------------------------------

@dataclass(frozen=True)
class Endpoint:
    """One query surface: validate → key → compute."""

    name: str
    normalize: Callable[[Mapping], Dict[str, Any]]
    compute: Callable[[Dict[str, Any]], Any]


ENDPOINTS: Dict[str, Endpoint] = {
    "sweep": Endpoint("sweep", _normalize_sweep, _compute_sweep),
    "plan": Endpoint("plan", _normalize_plan, _compute_plan),
    "lint": Endpoint("lint", _normalize_lint, _compute_lint),
    "exhibit": Endpoint("exhibit", _normalize_exhibit,
                        _compute_exhibit),
}


class _InFlight:
    """One leader computation other threads can wait on."""

    __slots__ = ("event", "value", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.value: Optional[bytes] = None
        self.error: Optional[BaseException] = None


def _compute_in_worker(endpoint: str, clean: Dict[str, Any],
                       budget_ms: Optional[float]) -> Any:
    """Pool-worker entry: re-open the deadline scope and compute.

    Module-level so it pickles; the ambient thread-local deadline does
    not cross the process boundary, hence the explicit remaining
    budget.  A raised :class:`~repro.errors.DeadlineError` pickles
    back to the parent intact (``ReproError.__reduce__``).
    """
    spec = ENDPOINTS[endpoint]
    with deadline_scope(budget_ms):
        return spec.compute(clean)


def _looks_canonical(body: bytes) -> bool:
    """Cheap integrity guard on warm-path store hits.

    Every stored value is a canonical-JSON envelope, so a payload that
    does not even look like one (a chaos-garbled or torn entry) is
    dropped and recomputed instead of being served as a 200.  Prefix/
    suffix only — full parsing would tax every warm hit.
    """
    return body.startswith(b'{"endpoint":') and body.endswith(b"}")


class AnalysisService:
    """Coalescing, store-backed executor for the endpoint registry."""

    def __init__(self, store: Optional[ResultStore] = None, *,
                 admission: Optional[AdmissionController] = None,
                 pool=None, chaos=None):
        self.store = store
        self.admission = admission or AdmissionController()
        self.pool = pool
        self.chaos = chaos
        self._registry_lock = threading.Lock()
        self._inflight: Dict[str, _InFlight] = {}

    # -- keys ----------------------------------------------------------
    def endpoints(self) -> List[str]:
        return sorted(ENDPOINTS)

    def canonical(self, endpoint: str,
                  params: Mapping) -> Tuple[Dict[str, Any], str]:
        """(canonical params, content key) for one request.

        Raises :class:`~repro.errors.BindingError` on an unknown
        endpoint or malformed parameters — the HTTP layer maps that to
        a structured 400.
        """
        spec = ENDPOINTS.get(endpoint)
        if spec is None:
            raise BindingError(
                f"unknown endpoint {endpoint!r}; available: "
                f"{sorted(ENDPOINTS)}",
                hint=did_you_mean(str(endpoint), ENDPOINTS),
            )
        clean = spec.normalize(params)
        key = content_key("serve", endpoint, clean)
        return clean, key

    # -- queries -------------------------------------------------------
    def query(self, endpoint: str, params: Mapping) -> Dict[str, Any]:
        """Parsed JSON envelope of :meth:`query_bytes` (test helper)."""
        return json.loads(self.query_bytes(endpoint, params))

    def query_bytes(self, endpoint: str, params: Mapping, *,
                    deadline: Optional[Deadline] = None) -> bytes:
        """One coalesced, cached query; returns the response bytes.

        The envelope is ``{"endpoint", "key", "params", "result"}`` —
        deterministic canonical JSON, so every caller of an identical
        query receives byte-identical bodies no matter whether they
        hit the in-flight map, the result store, or the computation.
        A ``deadline`` bounds every wait (coalesce, admission queue)
        and propagates into the computation itself.
        """
        _QUERIES.inc()
        try:
            body = self._query_bytes(endpoint, params,
                                     deadline=deadline)
        except DeadlineError:
            if deadline is not None:
                _DEADLINE_EXCEEDED.inc()
            raise
        if deadline is not None:
            _DEADLINE_MET.inc()
        return body

    def _query_bytes(self, endpoint: str, params: Mapping, *,
                     deadline: Optional[Deadline]) -> bytes:
        clean, key = self.canonical(endpoint, params)

        with self._registry_lock:
            entry = self._inflight.get(key)
            if entry is None:
                mine = _InFlight()
                self._inflight[key] = mine
                _INFLIGHT.set(len(self._inflight))
            else:
                mine = None
        if mine is None:
            # follower: the leader's bytes (or its error) are ours
            _COALESCE_HIT.inc()
            timeout = (None if deadline is None
                       else deadline.remaining_s())
            if not entry.event.wait(timeout):
                raise DeadlineError(
                    f"deadline of {deadline.budget_ms:g} ms expired "
                    "waiting on an identical in-flight query",
                    progress={"stage": "coalesce-wait",
                              "endpoint": endpoint},
                    hint="raise deadline_ms, or retry once the "
                         "identical query finishes",
                )
            if entry.error is not None:
                raise entry.error
            return entry.value

        _COALESCE_MISS.inc()
        try:
            body = self._lookup_or_compute(endpoint, clean, key,
                                           deadline=deadline)
            mine.value = body
            return body
        except BaseException as error:
            mine.error = error
            raise
        finally:
            with self._registry_lock:
                self._inflight.pop(key, None)
                _INFLIGHT.set(len(self._inflight))
            mine.event.set()

    # -- the cold path -------------------------------------------------
    def _store_get(self, endpoint: str, key: str,
                   chaos_index: int) -> Optional[bytes]:
        """Warm-path lookup with the envelope integrity guard."""
        if self.store is None:
            return None
        cached = self.store.get(key)
        if not isinstance(cached, bytes):
            return None
        if self.chaos is not None:
            garbled = self.chaos.corrupt_bytes(endpoint, chaos_index,
                                               cached)
            if garbled is not None:
                # the fault writes real corruption through the store,
                # so the guard below is exercised on a genuine read
                self.store.put(key, garbled)
                cached = self.store.get(key)
                if not isinstance(cached, bytes):
                    return None
        if not _looks_canonical(cached):
            _STORE_CORRUPT.inc()
            return None
        return cached

    def _lookup_or_compute(self, endpoint: str, clean: Dict[str, Any],
                           key: str, *,
                           deadline: Optional[Deadline] = None) -> bytes:
        chaos_index = 0
        if self.chaos is not None:
            chaos_index = self.chaos.next_index()
        cached = self._store_get(endpoint, key, chaos_index)
        if cached is not None:
            return cached

        # cold compute: the compute gate, whose queue wait the
        # deadline bounds — the warm path above never touches it
        try:
            with self.admission.gate.admit(deadline):
                if deadline is not None and deadline.expired():
                    raise DeadlineError(
                        f"deadline of {deadline.budget_ms:g} ms "
                        "expired in the admission queue",
                        progress={"stage": "admitted",
                                  "endpoint": endpoint},
                    )
                if self.chaos is not None:
                    self.chaos.before_compute(endpoint, chaos_index)
                with obs.span("serve.compute", "serve",
                              endpoint=endpoint, key=key[:12]):
                    result = self._dispatch_compute(
                        endpoint, clean, deadline)
        except ReproError:
            raise
        except Exception as error:
            # a foreign exception out of a compute is a dependency
            # failure, not a protocol bug: surface it as a structured
            # E-EXEC 503, never an unstructured 500
            raise WorkerCrashError(
                f"compute for /v1/{endpoint} failed: "
                f"{type(error).__name__}: {error}",
                hint="retry the request; the failure is answered for "
                     "this query alone and sheds no other",
            ) from error
        _COMPUTED.inc()
        body = canonical_json({
            "endpoint": endpoint,
            "key": key,
            "params": clean,
            "result": result,
        })
        if self.store is not None:
            self.store.put(key, body)
        return body

    def _dispatch_compute(self, endpoint: str, clean: Dict[str, Any],
                          deadline: Optional[Deadline]) -> Any:
        budget_ms = (None if deadline is None
                     else max(1.0, deadline.remaining_ms()))
        if self.pool is not None:
            return self.pool.call(_compute_in_worker, endpoint, clean,
                                  budget_ms)
        with deadline_scope(budget_ms):
            return ENDPOINTS[endpoint].compute(clean)
