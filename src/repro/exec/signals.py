"""Graceful shutdown: first signal drains, second hard-aborts.

The CLIs wrap their batch runs in :class:`GracefulShutdown`.  The first
SIGINT/SIGTERM does *not* kill the process: it flips a flag the
execution engine polls between task completions, so in-flight work
finishes, its results land in the result store, and the run exits with
the resumable exit code (3) — rerunning the same command then answers
the finished work from the store.  A second signal restores the
default handlers and raises ``KeyboardInterrupt`` immediately (the hard
abort for a stuck drain).

Handlers are installed only in the main thread (Python restricts
``signal.signal`` to it); elsewhere the context manager is a no-op and
``stop_requested`` simply stays False.
"""

from __future__ import annotations

import signal
import sys
import threading
from typing import List, Tuple

from .. import obs

__all__ = ["GracefulShutdown", "ignore_termination_in_worker"]

_RECEIVED = obs.counter("resilience.signals.received")
_DRAINS = obs.counter("resilience.signals.drain_started")
_HARD_ABORTS = obs.counter("resilience.signals.hard_abort")


class GracefulShutdown:
    """Context manager installing the two-stage signal protocol."""

    def __init__(self, *, signals: Tuple[int, ...] = (
            signal.SIGINT, signal.SIGTERM),
            stream=None):
        self._signals = signals
        self._stream = stream if stream is not None else sys.stderr
        self._previous: List[Tuple[int, object]] = []
        self._installed = False
        self.requested = False
        self.count = 0

    # -- engine-facing API ---------------------------------------------
    def stop_requested(self) -> bool:
        """True once the first signal arrived (the engine's stop poll)."""
        return self.requested

    # -- handler -------------------------------------------------------
    def _handle(self, signum, frame) -> None:
        self.count += 1
        _RECEIVED.inc()
        name = signal.Signals(signum).name
        if self.count == 1:
            self.requested = True
            _DRAINS.inc()
            print(
                f"{name} received: draining in-flight work (signal "
                "again to abort immediately); rerun the same command "
                "to continue",
                file=self._stream,
            )
            return
        _HARD_ABORTS.inc()
        print(f"{name} received again: hard abort", file=self._stream)
        self._restore()
        raise KeyboardInterrupt(f"hard abort on second {name}")

    # -- install / restore ---------------------------------------------
    def __enter__(self) -> "GracefulShutdown":
        if threading.current_thread() is threading.main_thread():
            for sig in self._signals:
                self._previous.append((sig, signal.getsignal(sig)))
                signal.signal(sig, self._handle)
            self._installed = True
        return self

    def _restore(self) -> None:
        if self._installed:
            for sig, previous in self._previous:
                try:
                    signal.signal(sig, previous)
                except (ValueError, TypeError):  # pragma: no cover
                    pass
            self._previous = []
            self._installed = False

    def __exit__(self, *exc_info) -> None:
        self._restore()


def ignore_termination_in_worker() -> None:
    """Pool-worker bootstrap: ignore SIGINT *and* SIGTERM.

    A terminal Ctrl-C, like a ``kill`` from an init system, is often
    delivered to the whole process group.  The parent decides whether
    to drain or abort; a worker dying mid-task would turn a graceful
    drain into a failed task or a spurious 503.  The pool SIGKILLs its
    workers when it actually wants them gone.
    """
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(sig, signal.SIG_IGN)
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass
