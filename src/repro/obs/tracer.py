"""Hierarchical span tracer: the timing half of :mod:`repro.obs`.

The paper's method is profiling (TFprof per-op spans joined with
algorithmic counts, §4.1); this is the same instrument turned on our
own analysis pipeline.  A *span* is one timed region of the pipeline —
a tape compile, a sweep point, a report render, an executed op — with a
name, a category, a start/end pair on a monotonic clock, and arbitrary
key/value args (where the FLOP/byte joins live).

Design constraints, in priority order:

* **~zero overhead when disabled** — tracing is off by default; a
  disabled ``span()`` call returns one shared no-op singleton and
  touches no locks, no clocks, and no allocations.
* **nestable** — spans started while another span is open on the same
  thread become its children (depth + parent recorded), via a
  thread-local span stack; exceptions unwind the stack correctly and
  tag the span with the exception type.
* **thread isolated** — each thread has its own stack; completed spans
  are appended to one shared list under a lock (completion is rare
  relative to the work inside a span).
* **monotonic** — timestamps come from ``time.perf_counter_ns``;
  wall-clock adjustments can never produce negative durations.
* **mergeable across processes** — every span carries the pid it was
  recorded in plus a process-unique id, exports to a plain picklable
  record (:meth:`Span.to_record`), and a parent tracer can
  :meth:`~Tracer.ingest` a worker's records into its own stream (the
  exec engine ships a trace context to each pool task and merges the
  returned spans, so worker time is no longer a blind spot).
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Span",
    "Tracer",
    "TRACER",
    "span",
    "trace",
    "enable",
    "disable",
    "is_enabled",
    "clear",
    "spans",
    "current_span",
    "monotonic_ns",
]


def monotonic_ns() -> int:
    """The obs time source: monotonic, ns resolution, NTP-immune."""
    return time.perf_counter_ns()


class Span:
    """One completed (or in-flight) timed region.

    Acts as its own context manager; constructed via
    :meth:`Tracer.span`, never directly.
    """

    __slots__ = ("id", "pid", "name", "category", "start_ns", "end_ns",
                 "thread_id", "thread_name", "depth", "parent", "args",
                 "error", "_tracer")

    def __init__(self, tracer: "Tracer", name: str, category: str,
                 args: Dict[str, object]):
        self._tracer = tracer
        self.id = next(tracer._ids)
        self.pid = os.getpid()
        self.name = name
        self.category = category
        self.args = args
        self.start_ns = 0
        self.end_ns: Optional[int] = None
        self.thread_id = 0
        self.thread_name = ""
        self.depth = 0
        self.parent: Optional[Span] = None
        self.error: Optional[str] = None

    # -- annotation ----------------------------------------------------
    def set(self, **kv) -> "Span":
        """Attach args to the span (e.g. counts discovered mid-region)."""
        self.args.update(kv)
        return self

    # -- timing --------------------------------------------------------
    @property
    def duration_ns(self) -> int:
        end = self.end_ns if self.end_ns is not None else monotonic_ns()
        return end - self.start_ns

    @property
    def duration_s(self) -> float:
        return self.duration_ns / 1e9

    # -- cross-process export ------------------------------------------
    def to_record(self) -> Dict[str, object]:
        """Plain picklable form (what pool workers send back)."""
        return {
            "id": self.id,
            "pid": self.pid,
            "name": self.name,
            "cat": self.category,
            "start_ns": self.start_ns,
            "end_ns": (self.end_ns if self.end_ns is not None
                       else monotonic_ns()),
            "tid": self.thread_id,
            "tname": self.thread_name,
            "depth": self.depth,
            "parent_id": self.parent.id if self.parent else None,
            "args": dict(self.args),
            "error": self.error,
        }

    # -- context manager -----------------------------------------------
    def __enter__(self) -> "Span":
        thread = threading.current_thread()
        self.thread_id = thread.ident or 0
        self.thread_name = thread.name
        stack = self._tracer._stack()
        self.depth = len(stack)
        self.parent = stack[-1] if stack else None
        stack.append(self)
        # start the clock last so setup is not charged to the span
        self.start_ns = monotonic_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end_ns = monotonic_ns()
        if exc_type is not None:
            self.error = exc_type.__name__
        stack = self._tracer._stack()
        # unwind to this span even if an inner span leaked (defensive;
        # a with-statement cannot leak, but a misused __enter__ can)
        while stack:
            if stack.pop() is self:
                break
        with self._tracer._lock:
            self._tracer._spans.append(self)
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (f"{self.duration_ns / 1e6:.3f}ms"
                 if self.end_ns is not None else "open")
        return f"Span({self.name!r}, {state}, depth={self.depth})"


class _NullSpan:
    """Shared do-nothing span handed out while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **kv) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class Tracer:
    """Span collector: per-thread stacks, one shared completed list."""

    def __init__(self) -> None:
        self.enabled = False
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        self._local = threading.local()
        # span ids: process-unique under the GIL (itertools.count.next
        # is a single C call); ids are remapped on cross-process ingest
        self._ids = itertools.count(1)

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- control -------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def clear(self) -> None:
        with self._lock:
            self._spans = []

    def reset(self, span_list: Optional[Sequence[Span]] = None) -> None:
        """Replace the completed-span list (test isolation: snapshot
        with :meth:`spans`, restore with :meth:`reset`)."""
        with self._lock:
            self._spans = list(span_list) if span_list else []

    # -- recording -----------------------------------------------------
    def span(self, name: str, category: str = "", **args):
        """Open a span; ``with tracer.span("sweep.point", size=512): ...``.

        Returns the shared no-op singleton when disabled — the hot-path
        cost of an untraced region is this one attribute check.
        """
        if not self.enabled:
            return _NULL_SPAN
        return Span(self, name, category, args)

    def current(self) -> Optional[Span]:
        """Innermost open span on this thread (None outside any span)."""
        stack = self._stack()
        return stack[-1] if stack else None

    def record_complete(self, name: str, category: str = "", *,
                        start_ns: int, end_ns: int,
                        error: Optional[str] = None,
                        parent: Optional[Span] = None,
                        **args) -> Optional[Span]:
        """Append an already-timed span (no stack interaction).

        The exec engine uses this for synthetic parent-side task spans
        — a pool dispatch window, a cache hit, a timed-out task —
        whose start/end were measured outside a ``with`` block.
        Returns None (and records nothing) while disabled.
        """
        if not self.enabled:
            return None
        span = Span(self, name, category, args)
        thread = threading.current_thread()
        span.thread_id = thread.ident or 0
        span.thread_name = thread.name
        span.start_ns = start_ns
        span.end_ns = max(end_ns, start_ns)
        span.error = error
        span.parent = parent
        span.depth = parent.depth + 1 if parent is not None else 0
        with self._lock:
            self._spans.append(span)
        return span

    def ingest(self, records: Sequence[Dict[str, object]], *,
               pid: Optional[int] = None,
               window: Optional[Tuple[int, int]] = None,
               parent: Optional[Span] = None) -> List[Span]:
        """Merge a worker's exported span records into this tracer.

        ``records`` is a list of :meth:`Span.to_record` dicts from
        another process.  Ids are remapped into this tracer's sequence
        (parent links preserved within the batch; batch roots are
        linked to ``parent``).  With ``window`` — the parent-side
        (submit_ns, collect_ns) pair — worker timestamps are shifted
        (and, under clock skew, clamped) so every merged span lies
        inside the parent's measurement window; on Linux
        ``perf_counter_ns`` is the shared CLOCK_MONOTONIC, so the
        shift is normally zero.
        """
        if not records:
            return []
        ordered = sorted(records, key=lambda r: r["id"])
        shift = 0
        if window is not None:
            lo = min(int(r["start_ns"]) for r in ordered)
            if lo < window[0]:
                shift = window[0] - lo
        by_old: Dict[object, Span] = {}
        merged: List[Span] = []
        base_depth = parent.depth + 1 if parent is not None else 0
        for record in ordered:
            span = Span(self, str(record["name"]),
                        str(record.get("cat") or ""),
                        dict(record.get("args") or {}))
            span.pid = int(pid if pid is not None
                           else record.get("pid") or 0)
            span.start_ns = int(record["start_ns"]) + shift
            span.end_ns = int(record["end_ns"]) + shift
            if window is not None and span.end_ns > window[1]:
                span.end_ns = max(window[1], span.start_ns)
                span.start_ns = min(span.start_ns, span.end_ns)
            span.thread_id = int(record.get("tid") or 0)
            span.thread_name = str(record.get("tname") or "")
            span.error = record.get("error")  # type: ignore[assignment]
            old_parent = record.get("parent_id")
            span.parent = by_old.get(old_parent, parent)
            span.depth = int(record.get("depth") or 0) + base_depth
            by_old[record["id"]] = span
            merged.append(span)
        with self._lock:
            self._spans.extend(merged)
        return merged

    # -- access --------------------------------------------------------
    def spans(self) -> List[Span]:
        """Snapshot of completed spans (ordered by completion time)."""
        with self._lock:
            return list(self._spans)


#: process-global tracer; every pipeline layer records into this one
TRACER = Tracer()


def span(name: str, category: str = "", **args):
    return TRACER.span(name, category, **args)


def trace(name=None, category: str = "fn") -> Callable:
    """Decorator form: ``@trace`` or ``@trace("custom.name", "cat")``.

    The enabled check happens per *call*, so functions decorated at
    import time stay no-ops until tracing is switched on.
    """
    if callable(name):  # bare @trace
        return trace()(name)

    def decorate(fn: Callable) -> Callable:
        label = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not TRACER.enabled:
                return fn(*args, **kwargs)
            with TRACER.span(label, category):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


def enable() -> None:
    TRACER.enable()


def disable() -> None:
    TRACER.disable()


def is_enabled() -> bool:
    return TRACER.enabled


def clear() -> None:
    TRACER.clear()


def spans() -> List[Span]:
    return TRACER.spans()


def current_span() -> Optional[Span]:
    return TRACER.current()
