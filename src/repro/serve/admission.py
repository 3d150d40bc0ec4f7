"""Admission control: the compute gate and per-connection rate limits.

Overload policy for the server, and every knob it reads, in one place:

* :class:`ServeConfig` — the server's resilience knobs (admission
  queue, rate limits, breakers, compute workers, socket timeouts).
* :class:`Bulkhead` — the server's one compute gate: a concurrency
  limit with a **bounded** waiter queue.  ``width`` cold computes run
  at once; up to ``queue_depth`` more wait (at most ``queue_timeout``
  seconds, or a request's remaining deadline); everything beyond that
  is **shed immediately** with :class:`~repro.errors.BusyError`
  (E-BUSY → HTTP 429 + ``Retry-After``).  Shedding at admission keeps
  the failure mode "fast 429" instead of "every thread blocked on one
  slow sweep" — and because the service checks the result store
  *before* the gate, warm hits never queue behind cold computes.
* :class:`TokenBucket` — the classic rate limiter: ``burst`` tokens,
  refilled at ``rate`` per second.  The HTTP layer keeps one bucket
  per connection, so a single misbehaving keep-alive client throttles
  itself without affecting the others.
* :class:`AdmissionController` — what the server threads share: the
  compute gate, sized from the config, and the per-connection buckets
  it hands to the HTTP layer.

Counters: ``serve.admission.admitted`` (requests that acquired a
gate slot), ``serve.admission.queued`` (had to wait first),
``serve.admission.shed`` (rejected with E-BUSY, including rate-limit
rejections).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, Optional

from .. import obs
from ..errors import BusyError

__all__ = ["AdmissionController", "Bulkhead", "ServeConfig",
           "TokenBucket", "MAX_BODY_BYTES"]

#: request bodies larger than this are rejected outright (413)
MAX_BODY_BYTES = 1 << 20

_ADMITTED = obs.counter("serve.admission.admitted")
_QUEUED = obs.counter("serve.admission.queued")
_SHED = obs.counter("serve.admission.shed")
_WAITING = obs.gauge("serve.admission.waiting")


class TokenBucket:
    """``burst`` tokens refilled at ``rate``/s; thread-safe."""

    def __init__(self, rate: float, burst: int):
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate!r}")
        self.rate = float(rate)
        self.burst = max(1, int(burst))
        self._tokens = float(self.burst)
        self._stamp = time.monotonic()
        self._lock = threading.Lock()

    def try_take(self) -> float:
        """Take one token; returns 0.0 on success, else the advisory
        seconds to wait until a token is available."""
        with self._lock:
            now = time.monotonic()
            self._tokens = min(
                float(self.burst),
                self._tokens + (now - self._stamp) * self.rate)
            self._stamp = now
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return 0.0
            return (1.0 - self._tokens) / self.rate


class Bulkhead:
    """Bounded concurrency + bounded waiting: the compute gate."""

    def __init__(self, width: int, queue_depth: int,
                 queue_timeout: float):
        self.width = max(1, int(width))
        self.queue_depth = max(0, int(queue_depth))
        self.queue_timeout = float(queue_timeout)
        self._cond = threading.Condition()
        self._running = 0
        self._waiting = 0

    def _shed(self, reason: str, retry_after: float) -> None:
        _SHED.inc()
        raise BusyError(
            f"the compute gate is {reason} (width {self.width}, "
            f"queue depth {self.queue_depth})",
            retry_after=max(0.1, retry_after),
            hint="retry after the Retry-After interval, or submit "
                 "the query as an async job (POST /v1/jobs)",
        )

    def _has_slot(self) -> bool:
        return self._running < self.width

    @contextmanager
    def admit(self, timeout: Optional[float] = None) -> Iterator[None]:
        """Hold one concurrency slot for the duration of the body.

        ``timeout`` caps the queue wait (defaults to the configured
        ``queue_timeout``; a request deadline passes its remaining
        budget).  Raises :class:`BusyError` instead of waiting when
        the bounded queue is already full, or when the wait times out.
        """
        wait = self.queue_timeout if timeout is None \
            else min(self.queue_timeout, max(0.0, timeout))
        with self._cond:
            if not self._has_slot():
                if self._waiting >= self.queue_depth:
                    self._shed("saturated", self.queue_timeout)
                self._waiting += 1
                _WAITING.set(self._waiting)
                _QUEUED.inc()
                try:
                    admitted = self._cond.wait_for(self._has_slot, wait)
                finally:
                    self._waiting -= 1
                    _WAITING.set(self._waiting)
                if not admitted:
                    self._shed("saturated past the queue timeout", wait)
            self._running += 1
            _ADMITTED.inc()
        try:
            yield
        finally:
            with self._cond:
                self._running -= 1
                self._cond.notify()

    def snapshot(self) -> Dict[str, int]:
        """Current occupancy (for /healthz)."""
        with self._cond:
            return {"width": self.width,
                    "queue_depth": self.queue_depth,
                    "waiting": self._waiting}


@dataclass(frozen=True)
class ServeConfig:
    """Every resilience knob in one place (see the README runbook)."""

    #: bounded admission queue of the compute gate; beyond it
    #: requests shed 429
    queue_depth: int = 8
    #: max seconds a request waits in the admission queue
    queue_timeout: float = 30.0
    #: per-connection requests/second token rate (0 disables)
    rate_limit: float = 0.0
    #: per-connection token-bucket burst
    rate_burst: int = 20
    #: consecutive compute failures that open a family's breaker
    breaker_threshold: int = 3
    #: seconds an open breaker sheds before its half-open probe
    breaker_cooldown: float = 1.0
    #: cooldown multiplier per consecutive re-open (capped below)
    breaker_backoff: float = 2.0
    breaker_max_cooldown: float = 30.0
    #: cold computes run on this many supervised worker processes
    #: (0 = in-process, the default for tests and small deployments);
    #: it is also the compute gate's width (1 in-process)
    compute_workers: int = 0
    #: socket read timeout — caps how long a client may dribble
    #: headers (or idle between keep-alive requests)
    header_timeout: float = 30.0
    #: wall-clock budget for reading one request body
    body_timeout: float = 10.0
    #: graceful-drain budget used when ``shutdown()`` gets no override
    drain_timeout: float = 5.0
    max_body_bytes: int = MAX_BODY_BYTES


class AdmissionController:
    """The compute gate + rate-limit policy the server shares."""

    def __init__(self, config: Optional[ServeConfig] = None):
        self.config = config or ServeConfig()
        # one slot per compute that can run at once: one in-process
        # (the pipeline's memoized caches are not thread-safe), one
        # per supervised worker process otherwise
        self.gate = Bulkhead(max(1, self.config.compute_workers),
                             self.config.queue_depth,
                             self.config.queue_timeout)

    def connection_bucket(self) -> Optional[TokenBucket]:
        """A fresh per-connection bucket (None: limiting disabled)."""
        if self.config.rate_limit <= 0:
            return None
        return TokenBucket(self.config.rate_limit,
                           self.config.rate_burst)

    @staticmethod
    def check_bucket(bucket: Optional[TokenBucket]) -> None:
        """Raise E-BUSY when the connection's bucket is empty."""
        if bucket is None:
            return
        retry_after = bucket.try_take()
        if retry_after > 0:
            _SHED.inc()
            raise BusyError(
                "per-connection rate limit exceeded",
                retry_after=retry_after,
                hint="slow down, batch queries, or open a second "
                     "connection only if you are genuinely a "
                     "different client",
            )
