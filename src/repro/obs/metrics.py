"""Metrics registry: the counting half of :mod:`repro.obs`.

Three instrument kinds, addressable by dotted name through one
process-global registry:

* :class:`Counter` — monotonically increasing totals (cache hits, heap
  pushes, tape instructions);
* :class:`Gauge` — last-written values (tape length of the most recent
  compile);
* :class:`Histogram` — value distributions over fixed log2 buckets
  (span durations, bisection iteration counts), constant memory per
  instrument regardless of observation count.

Unlike spans, metrics are *always on*: one attribute add per event is
cheap enough for every call site in this pipeline (hot inner loops
accumulate into local ints and flush once — see
``graph.traversal.memory_greedy_order``).  Instruments are created
once, at module import, so call sites pay no registry lookup.

Updates are plain attribute writes guarded only by the GIL; counts are
exact for single-threaded pipelines and at worst slightly under-counted
under free-threaded racing, which is the standard stats-counter
trade-off (a lock per increment would dwarf the counted work).
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "counter",
    "gauge",
    "histogram",
    "snapshot",
    "clear",
    "reset",
    "save_state",
    "restore_state",
    "histogram_percentiles",
    "percentile_from_buckets",
]

#: log2 histogram buckets: bucket i holds values in (2**(i-1), 2**i],
#: bucket 0 holds everything <= 1.  64 buckets cover the full double
#: exponent range this pipeline produces (ns durations, byte counts).
_N_BUCKETS = 64


class Counter:
    """Monotonic event count; ``inc`` is one float add."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self.value})"


class Gauge:
    """Last-set value (plus set count, so 'never set' is detectable)."""

    __slots__ = ("name", "value", "updates")

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0.0
        self.updates = 0

    def set(self, value: float) -> None:
        self.value = float(value)
        self.updates += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name}={self.value})"


def _bucket_index(value: float) -> int:
    """Index of the log2 bucket containing ``value``."""
    if value <= 1.0:
        return 0
    return min(_N_BUCKETS - 1, int(math.ceil(math.log2(value))))


def bucket_edges(index: int) -> Tuple[float, float]:
    """(lower, upper] value bounds of log2 bucket ``index``."""
    if index <= 0:
        return 0.0, 1.0
    return float(2.0 ** (index - 1)), float(2.0 ** index)


def percentile_from_buckets(buckets, count: int, q: float, *,
                            vmin: Optional[float] = None,
                            vmax: Optional[float] = None) -> float:
    """Estimate the q-quantile from log2 bucket counts.

    ``buckets`` is either the dense 64-entry list a live
    :class:`Histogram` holds or the sparse ``{index: count}`` mapping a
    run-history snapshot stores (string keys tolerated — JSON round
    trips).  The estimate interpolates linearly inside the covering
    bucket (so it is within the bucket's 2x width) and is clamped to
    the exact observed ``[vmin, vmax]`` when provided.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    if count <= 0:
        return 0.0
    if isinstance(buckets, dict):
        items = sorted((int(i), int(n)) for i, n in buckets.items())
    else:
        items = [(i, int(n)) for i, n in enumerate(buckets)]
    rank = q * count
    seen = 0
    estimate = 0.0
    for index, n in items:
        if n <= 0:
            continue
        if seen + n >= rank:
            lo, hi = bucket_edges(index)
            frac = max(0.0, min(1.0, (rank - seen) / n))
            estimate = lo + frac * (hi - lo)
            break
        seen += n
        lo, hi = bucket_edges(index)
        estimate = hi
    if vmin is not None:
        estimate = max(estimate, float(vmin))
    if vmax is not None:
        estimate = min(estimate, float(vmax))
    return estimate


class Histogram:
    """Distribution sketch over fixed log2 buckets.

    Tracks count/sum/min/max exactly; :meth:`percentile` is
    approximate (interpolated inside its log2 bucket, so within 2x).
    """

    __slots__ = ("name", "count", "total", "min", "max", "buckets")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.buckets: List[int] = [0] * _N_BUCKETS

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.buckets[_bucket_index(value)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Interpolated q-quantile (see :func:`percentile_from_buckets`)."""
        return percentile_from_buckets(
            self.buckets, self.count, q,
            vmin=self.min if self.count else None,
            vmax=self.max if self.count else None,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Histogram({self.name}: n={self.count}, "
                f"mean={self.mean:.3g})")


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Create-or-fetch instruments by dotted name.

    Creation takes a lock (rare — call sites hold module-level
    references); updates on the returned instruments do not.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, Metric] = {}

    def _get(self, name: str, cls) -> Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = cls(name)
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}, not {cls.__name__}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def get(self, name: str) -> Optional[Metric]:
        with self._lock:
            return self._metrics.get(name)

    def items(self) -> Iterator[Tuple[str, Metric]]:
        with self._lock:
            snapshot = sorted(self._metrics.items())
        return iter(snapshot)

    def clear(self) -> None:
        """Zero every instrument (references held by call sites stay
        valid, so this resets rather than unregisters)."""
        with self._lock:
            for metric in self._metrics.values():
                if isinstance(metric, Counter):
                    metric.value = 0
                elif isinstance(metric, Gauge):
                    metric.value = 0.0
                    metric.updates = 0
                else:
                    metric.count = 0
                    metric.total = 0.0
                    metric.min = math.inf
                    metric.max = -math.inf
                    metric.buckets = [0] * _N_BUCKETS

    def snapshot(self) -> Dict[str, dict]:
        """Plain-data view of every instrument (for JSON export).

        Histogram entries carry their (sparse) log2 buckets, so a
        persisted snapshot — e.g. a run-history record — can still
        answer percentile queries after the process is gone.
        """
        out: Dict[str, dict] = {}
        for name, metric in self.items():
            if isinstance(metric, Counter):
                out[name] = {"type": "counter", "value": metric.value}
            elif isinstance(metric, Gauge):
                out[name] = {"type": "gauge", "value": metric.value,
                             "updates": metric.updates}
            else:
                out[name] = {
                    "type": "histogram",
                    "count": metric.count,
                    "sum": metric.total,
                    "mean": metric.mean,
                    "min": metric.min if metric.count else None,
                    "max": metric.max if metric.count else None,
                    "p50": metric.percentile(0.5),
                    "p95": metric.percentile(0.95),
                    "p99": metric.percentile(0.99),
                    "buckets": {str(i): n
                                for i, n in enumerate(metric.buckets)
                                if n},
                }
        return out

    # -- state capture (worker deltas + test isolation) ----------------
    def state(self) -> Dict[str, tuple]:
        """Exact raw values of every instrument, cheap to diff/restore."""
        with self._lock:
            metrics = list(self._metrics.items())
        out: Dict[str, tuple] = {}
        for name, metric in metrics:
            if isinstance(metric, Counter):
                out[name] = ("counter", metric.value)
            elif isinstance(metric, Gauge):
                out[name] = ("gauge", metric.value, metric.updates)
            else:
                out[name] = ("histogram", metric.count, metric.total,
                             metric.min, metric.max,
                             tuple(metric.buckets))
        return out

    def restore(self, state: Dict[str, tuple]) -> None:
        """Set every instrument back to a :meth:`state` snapshot.

        Instruments created after the snapshot are zeroed (they stay
        registered — call sites hold references).  This is the test
        isolation primitive: save at test start, restore at test end,
        and metric assertions become order-independent.
        """
        with self._lock:
            metrics = list(self._metrics.items())
        for name, metric in metrics:
            saved = state.get(name)
            if isinstance(metric, Counter):
                metric.value = saved[1] if saved else 0
            elif isinstance(metric, Gauge):
                if saved:
                    metric.value, metric.updates = saved[1], saved[2]
                else:
                    metric.value, metric.updates = 0.0, 0
            else:
                if saved:
                    (metric.count, metric.total,
                     metric.min, metric.max) = saved[1:5]
                    metric.buckets = list(saved[5])
                else:
                    metric.count = 0
                    metric.total = 0.0
                    metric.min = math.inf
                    metric.max = -math.inf
                    metric.buckets = [0] * _N_BUCKETS

    def delta_since(self, state: Dict[str, tuple]) -> Dict[str, dict]:
        """What changed since a :meth:`state` snapshot, as plain data.

        This is the worker side of cross-process metrics: a pool worker
        snapshots at task start, runs the task, and ships
        ``delta_since(baseline)`` home with the result; the parent
        folds it in with :meth:`merge_delta`.  Histogram window min/max
        are exact when the observation moved the all-time extrema and
        bucket-edge bounds (within 2x) otherwise — consistent with the
        sketch's precision everywhere else.
        """
        out: Dict[str, dict] = {}
        for name, metric in self.items():
            saved = state.get(name)
            if isinstance(metric, Counter):
                base = saved[1] if saved else 0
                if metric.value != base:
                    out[name] = {"type": "counter",
                                 "inc": metric.value - base}
            elif isinstance(metric, Gauge):
                base_updates = saved[2] if saved else 0
                if metric.updates != base_updates:
                    out[name] = {"type": "gauge", "value": metric.value,
                                 "updates": metric.updates - base_updates}
            else:
                base_count = saved[1] if saved else 0
                if metric.count == base_count:
                    continue
                base_buckets = saved[5] if saved else (0,) * _N_BUCKETS
                deltas = {i: n - base_buckets[i]
                          for i, n in enumerate(metric.buckets)
                          if n != base_buckets[i]}
                old_min = saved[3] if saved else math.inf
                old_max = saved[4] if saved else -math.inf
                if metric.min < old_min:
                    wmin = metric.min
                else:
                    wmin = bucket_edges(min(deltas))[0] if deltas else metric.min
                if metric.max > old_max:
                    wmax = metric.max
                else:
                    wmax = bucket_edges(max(deltas))[1] if deltas else metric.max
                out[name] = {
                    "type": "histogram",
                    "count": metric.count - base_count,
                    "total": metric.total - (saved[2] if saved else 0.0),
                    "min": wmin,
                    "max": wmax,
                    "buckets": deltas,
                }
        return out

    def merge_delta(self, delta: Dict[str, dict]) -> None:
        """Fold a :meth:`delta_since` payload into this registry.

        Creates missing instruments (a worker may import modules the
        parent has not).  Gauges are last-writer-wins in merge order,
        the same semantics as concurrent local ``set`` calls.
        """
        for name, entry in sorted(delta.items()):
            kind = entry.get("type")
            if kind == "counter":
                self.counter(name).inc(int(entry.get("inc", 0)))
            elif kind == "gauge":
                gauge = self.gauge(name)
                gauge.value = float(entry.get("value", 0.0))
                gauge.updates += int(entry.get("updates", 1))
            elif kind == "histogram":
                hist = self.histogram(name)
                hist.count += int(entry.get("count", 0))
                hist.total += float(entry.get("total", 0.0))
                hist.min = min(hist.min, float(entry.get("min", math.inf)))
                hist.max = max(hist.max,
                               float(entry.get("max", -math.inf)))
                for index, n in (entry.get("buckets") or {}).items():
                    index = int(index)
                    if 0 <= index < _N_BUCKETS:
                        hist.buckets[index] += int(n)


#: process-global registry; every pipeline layer counts into this one
REGISTRY = MetricsRegistry()


def counter(name: str) -> Counter:
    return REGISTRY.counter(name)


def gauge(name: str) -> Gauge:
    return REGISTRY.gauge(name)


def histogram(name: str) -> Histogram:
    return REGISTRY.histogram(name)


def snapshot() -> Dict[str, dict]:
    return REGISTRY.snapshot()


def clear() -> None:
    REGISTRY.clear()


def reset() -> None:
    """Zero every instrument in the process registry (alias of
    :func:`clear`, named for the test-isolation API)."""
    REGISTRY.clear()


def save_state() -> Dict[str, tuple]:
    """Snapshot the process registry's raw values (restorable)."""
    return REGISTRY.state()


def restore_state(state: Dict[str, tuple]) -> None:
    """Restore the process registry to a :func:`save_state` snapshot."""
    REGISTRY.restore(state)


def histogram_percentiles(name: str,
                          qs: Sequence[float] = (0.5, 0.95, 0.99),
                          registry: Optional[MetricsRegistry] = None
                          ) -> Optional[Dict[float, float]]:
    """Interpolated percentile estimates for a registered histogram.

    Returns ``{q: estimate}`` (p50/p95/p99 by default) from the log2
    buckets, or None when ``name`` is not a histogram.  The summary
    tables and ``repro-obs show`` render these instead of raw bucket
    dumps.
    """
    reg = registry if registry is not None else REGISTRY
    metric = reg.get(name)
    if not isinstance(metric, Histogram):
        return None
    return {q: metric.percentile(q) for q in qs}
