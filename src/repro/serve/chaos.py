"""Deterministic fault injection for the resilience suite.

A chaos run is a **seeded JSON plan** interpreted against a global
request counter, so the same plan against the same request script
produces the same fault schedule every time — the resilience tests
assert exact invariants, not probabilistic ones.

Plan schema::

    {"seed": 7,
     "faults": [
       {"op": "latency",       "endpoint": "sweep",
        "from_request": 1, "to_request": 10,
        "ms": 25, "jitter_ms": 10},
       {"op": "error",         "endpoint": "plan", "at_request": 4},
       {"op": "kill_worker",   "at_request": 6},
       {"op": "corrupt_store", "endpoint": "exhibit", "at_request": 8}
     ]}

``at_request`` matches one request index exactly;
``from_request``/``to_request`` (inclusive, either open-ended) match a
range.  Indices are 1-based positions in the **leader-query
sequence**: every non-coalesced query bumps the counter once (whether
it lands warm or cold); coalesced followers never reach a fault
point.  An ``endpoint`` field restricts a fault to one family; omit
it to match every endpoint.

Fault semantics:

* ``latency`` — at the compute boundary, sleep ``ms`` plus seeded
  jitter in ``[0, jitter_ms]`` drawn from
  ``random.Random(seed ^ index)``;
* ``error`` — at the compute boundary, raise
  :class:`ChaosInjectedError` (a foreign exception: it surfaces as a
  structured E-EXEC 503 for that request alone, never an unstructured
  500);
* ``kill_worker`` — at the compute boundary, SIGKILL one
  supervised-pool worker via the bound callback (no-op when serving
  in-process);
* ``corrupt_store`` — garble the store payload for the *current* key
  before the warm-path read, exercising the envelope integrity guard.

Any other op is rejected as E-BIND when the plan is parsed.

The interpreter itself is policy-free: :class:`ReproServer` binds the
pool's worker-kill callback (:meth:`ChaosController.bind`),
``repro-serve --chaos-plan`` loads a plan file, and the byte-drip
*client* faults live in ``tests/helpers.DripClient`` — slow clients
are injected from outside the process, where real ones come from.
"""

from __future__ import annotations

import json
import random
import threading
import time
from typing import Any, Callable, Dict, List, Mapping, Optional

from .. import obs
from ..errors import BindingError

__all__ = ["ChaosPlan", "ChaosController", "ChaosInjectedError"]

_INJECTED = obs.counter("serve.chaos.injected")

_OPS = ("latency", "error", "kill_worker", "corrupt_store")
_FIELDS = ("op", "endpoint", "at_request", "from_request",
           "to_request", "ms", "jitter_ms")


class ChaosInjectedError(RuntimeError):
    """The fault the ``error`` op raises — deliberately *not* a
    ReproError: the resilience suite asserts that even a foreign
    exception class surfaces as a structured 503."""


class _Fault:
    __slots__ = ("op", "endpoint", "lo", "hi", "ms", "jitter_ms")

    def __init__(self, spec: Mapping[str, Any], index: int):
        def bad(message: str) -> None:
            raise BindingError(f"chaos fault #{index}: {message}")

        for field in spec:
            if field not in _FIELDS:
                bad(f"unknown field {field!r}; allowed: "
                    f"{sorted(_FIELDS)}")
        self.op = spec.get("op")
        if self.op not in _OPS:
            bad(f"unknown op {self.op!r}; one of {list(_OPS)}")
        self.endpoint = spec.get("endpoint")
        at = spec.get("at_request")
        if at is not None:
            self.lo = self.hi = int(at)
        else:
            self.lo = int(spec.get("from_request", 1))
            hi = spec.get("to_request")
            self.hi = int(hi) if hi is not None else None
        if self.lo < 1:
            bad("request indices are 1-based")
        self.ms = float(spec.get("ms", 0.0))
        self.jitter_ms = float(spec.get("jitter_ms", 0.0))

    def matches(self, endpoint: str, index: int) -> bool:
        if self.endpoint is not None and self.endpoint != endpoint:
            return False
        if index < self.lo:
            return False
        return self.hi is None or index <= self.hi


class ChaosPlan:
    """A parsed, validated fault plan."""

    def __init__(self, spec: Mapping[str, Any]):
        if not isinstance(spec, Mapping):
            raise BindingError(
                "a chaos plan must be a JSON object with 'seed' and "
                "'faults' fields")
        for field in spec:
            if field not in ("seed", "faults"):
                raise BindingError(
                    f"unknown chaos-plan field {field!r}; allowed: "
                    "['faults', 'seed']")
        self.seed = int(spec.get("seed", 0))
        faults = spec.get("faults")
        if not isinstance(faults, (list, tuple)):
            raise BindingError(
                "chaos-plan field 'faults' must be a list")
        self.faults: List[_Fault] = [
            _Fault(fault, i) for i, fault in enumerate(faults)
        ]

    @classmethod
    def from_json(cls, text: str) -> "ChaosPlan":
        try:
            return cls(json.loads(text))
        except ValueError as error:
            raise BindingError(
                f"chaos plan is not valid JSON: {error}") from None

    @classmethod
    def from_file(cls, path: str) -> "ChaosPlan":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return cls.from_json(handle.read())
        except OSError as error:
            raise BindingError(
                f"cannot read chaos plan {path!r}: {error}") from None


class ChaosController:
    """Interprets one plan against the live server's hook points."""

    def __init__(self, plan: ChaosPlan):
        self.plan = plan
        self._lock = threading.Lock()
        self._index = 0
        self._kill_worker: Optional[Callable[[], Any]] = None

    def bind(self, *, kill_worker: Callable[[], Any]) -> None:
        """Attach the supervised pool's worker-kill effector."""
        self._kill_worker = kill_worker

    # -- hook points ---------------------------------------------------
    def next_index(self) -> int:
        with self._lock:
            self._index += 1
            return self._index

    def corrupt_bytes(self, endpoint: str, index: int,
                      body: bytes) -> Optional[bytes]:
        """The garbled payload a matching ``corrupt_store`` fault
        wants written, or None when no fault matches."""
        for fault in self.plan.faults:
            if (fault.op == "corrupt_store"
                    and fault.matches(endpoint, index)):
                _INJECTED.inc()
                return b"\x00chaos\x00" + body[: max(0, len(body) - 7)]
        return None

    def before_compute(self, endpoint: str, index: int) -> None:
        """Apply latency/error/kill faults at the compute boundary."""
        for fault in self.plan.faults:
            if fault.op not in ("latency", "error", "kill_worker") \
                    or not fault.matches(endpoint, index):
                continue
            _INJECTED.inc()
            if fault.op == "latency":
                jitter = 0.0
                if fault.jitter_ms > 0:
                    rng = random.Random(self.plan.seed ^ index)
                    jitter = rng.uniform(0.0, fault.jitter_ms)
                time.sleep((fault.ms + jitter) / 1000.0)
            elif fault.op == "error":
                raise ChaosInjectedError(
                    f"chaos: injected failure for {endpoint!r} at "
                    f"request {index}")
            elif fault.op == "kill_worker":
                if self._kill_worker is not None:
                    self._kill_worker()

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {"seed": self.plan.seed,
                    "faults": len(self.plan.faults),
                    "requests_seen": self._index}
