"""Admission control: the compute gate.

Overload policy for the server, and every knob it reads, in one place:

* :class:`ServeConfig` — the server's resilience knobs (admission
  queue, compute workers, socket timeouts).
* :class:`Bulkhead` — the server's one compute gate: a concurrency
  limit with a **bounded** waiter queue.  ``width`` cold computes run
  at once; up to ``queue_depth`` more wait (at most ``queue_timeout``
  seconds, or a request's remaining deadline, which ends the wait as
  E-DEADLINE 504); everything beyond that is **shed immediately**
  with :class:`~repro.errors.BusyError` (E-BUSY → HTTP 429 +
  ``Retry-After``).  Shedding at admission keeps
  the failure mode "fast 429" instead of "every thread blocked on one
  slow sweep" — and because the service checks the result store
  *before* the gate, warm hits never queue behind cold computes.
  The gate is the only limit: one per connection would let a client
  through by opening another connection.
* :class:`AdmissionController` — what the server threads share: the
  compute gate, sized from the config.

Counters: ``serve.admission.admitted`` (requests that acquired a
gate slot), ``serve.admission.queued`` (had to wait first),
``serve.admission.shed`` (rejected with E-BUSY).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, Optional

from .. import obs
from ..deadline import Deadline
from ..errors import BusyError, DeadlineError

__all__ = ["AdmissionController", "Bulkhead", "ServeConfig",
           "MAX_BODY_BYTES"]

#: request bodies larger than this are rejected outright (413)
MAX_BODY_BYTES = 1 << 20

_ADMITTED = obs.counter("serve.admission.admitted")
_QUEUED = obs.counter("serve.admission.queued")
_SHED = obs.counter("serve.admission.shed")
_WAITING = obs.gauge("serve.admission.waiting")


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
            hint="retry after the Retry-After interval",
        )

    def _has_slot(self) -> bool:
        return self._running < self.width

    @contextmanager
    def admit(self, deadline: Optional[Deadline] = None
              ) -> Iterator[None]:
        """Hold one concurrency slot for the duration of the body.

        The queue wait lasts at most ``queue_timeout``, or what is left
        of a request's ``deadline`` if that is shorter.  Raises
        :class:`BusyError` instead of waiting when the bounded queue is
        already full, or when ``queue_timeout`` ends the wait, and
        :class:`~repro.errors.DeadlineError` when the deadline ends it.
        """
        wait = self.queue_timeout
        deadline_bound = (deadline is not None
                          and deadline.remaining_s() < wait)
        if deadline_bound:
            wait = max(0.0, deadline.remaining_s())
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
                if not admitted and deadline_bound:
                    raise DeadlineError(
                        f"deadline of {deadline.budget_ms:g} ms "
                        "expired waiting for the compute gate",
                        progress={"stage": "admission-queue"},
                        hint="raise deadline_ms, or retry when the "
                             "server is less busy",
                    )
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
    #: cold computes run on this many supervised worker processes
    #: (0 = in-process, the default for tests and small deployments);
    #: it is also the compute gate's width (1 in-process)
    compute_workers: int = 0
    #: socket read timeout — caps how long a client may dribble
    #: headers (or idle between keep-alive requests)
    header_timeout: float = 30.0
    #: wall-clock budget for reading one request body
    body_timeout: float = 10.0
    max_body_bytes: int = MAX_BODY_BYTES


class AdmissionController:
    """The compute gate the server threads share."""

    def __init__(self, config: Optional[ServeConfig] = None):
        self.config = config or ServeConfig()
        # one slot per compute that can run at once: one in-process
        # (the pipeline's memoized caches are not thread-safe), one
        # per supervised worker process otherwise
        self.gate = Bulkhead(max(1, self.config.compute_workers),
                             self.config.queue_depth,
                             self.config.queue_timeout)
