"""Ambient wall-clock budgets with cooperative cancellation.

A served request can carry a deadline (``?deadline_ms=`` or the
``X-Repro-Deadline-Ms`` header).  Threading that budget through every
call signature in the pipeline would touch dozens of functions, so the
budget travels as **ambient thread-local state** instead:

* the boundary (HTTP handler, pool worker entry) opens a
  :func:`deadline_scope` around the computation;
* long-running inner loops — the sweep per-point loop, the bisection
  solver, the subbatch planner — call :func:`check_deadline` at each
  unit of work.  When no scope is active the check is a cheap
  attribute read and a ``None`` comparison; when the budget has
  expired it raises :class:`~repro.errors.DeadlineError` (E-DEADLINE)
  carrying partial-progress diagnostics, which the HTTP layer renders
  as a structured 504.

Scopes nest: an inner scope never *extends* the outer budget (the
effective deadline is the minimum), so a library that sets its own
generous budget cannot leak past its caller's stricter one.  State is
per-thread, which matches the server's thread-per-request model; the
process-pool boundary re-opens a scope in the worker from an explicit
remaining-milliseconds argument.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Iterator, Optional

from .errors import DeadlineError

__all__ = ["Deadline", "deadline_scope", "current_deadline",
           "check_deadline", "remaining_ms"]


class Deadline:
    """One wall-clock budget, pinned to the monotonic clock."""

    __slots__ = ("budget_ms", "expires_at")

    def __init__(self, budget_ms: float):
        if not budget_ms > 0:
            raise ValueError(
                f"deadline budget must be positive, got {budget_ms!r}")
        self.budget_ms = float(budget_ms)
        self.expires_at = time.monotonic() + self.budget_ms / 1000.0

    def remaining_ms(self) -> float:
        """Milliseconds left (negative once expired)."""
        return (self.expires_at - time.monotonic()) * 1000.0

    def remaining_s(self) -> Optional[float]:
        """Seconds left, floored at 0 — the shape ``wait(timeout=)``
        and socket timeouts want."""
        return max(0.0, self.remaining_ms() / 1000.0)

    def expired(self) -> bool:
        return time.monotonic() >= self.expires_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Deadline(budget_ms={self.budget_ms:g}, "
                f"remaining_ms={self.remaining_ms():.1f})")


_STATE = threading.local()


def current_deadline() -> Optional[Deadline]:
    """The innermost active deadline on this thread, or None."""
    return getattr(_STATE, "deadline", None)


def remaining_ms() -> Optional[float]:
    """Milliseconds left on the active deadline (None when unset)."""
    deadline = current_deadline()
    return None if deadline is None else deadline.remaining_ms()


@contextmanager
def deadline_scope(budget_ms: Optional[float]) -> Iterator[Optional[Deadline]]:
    """Run the body under a wall-clock budget of ``budget_ms``.

    ``None`` is a no-op scope (the common unlimited path keeps zero
    overhead).  Nested scopes keep whichever deadline expires first.
    """
    if budget_ms is None:
        yield current_deadline()
        return
    outer = current_deadline()
    inner = Deadline(budget_ms)
    if outer is not None and outer.expires_at < inner.expires_at:
        inner = outer
    _STATE.deadline = inner
    try:
        yield inner
    finally:
        _STATE.deadline = outer


def check_deadline(stage: str, **progress: Any) -> None:
    """Raise E-DEADLINE when the ambient budget has expired.

    Call from inner loops with whatever progress the caller would
    want in a 504 body::

        check_deadline("sweep", domain=key,
                       points_done=len(rows), points_total=len(sizes))

    No-op (one thread-local read) when no deadline is active.
    """
    deadline = current_deadline()
    if deadline is None or not deadline.expired():
        return
    overshoot = -deadline.remaining_ms()
    raise DeadlineError(
        f"deadline of {deadline.budget_ms:g} ms exceeded during "
        f"{stage} (over by {overshoot:.1f} ms)",
        progress={"stage": stage, **progress},
        hint="raise deadline_ms or narrow the query",
    )
