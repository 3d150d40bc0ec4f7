"""Model-size sweeps: the data series behind Figures 7–10.

One symbolic graph per domain is bound at each sweep size; every
quantity (params, FLOPs/sample, GB accessed/step, operational
intensity, minimal footprint) is evaluated from the same aggregate
expressions, mirroring how the paper collects one TFprof profile per
trained configuration.

Evaluation runs through the compiled-expression layer
(:mod:`repro.symbolic.compile`): the aggregates are batch-compiled once
per model and replayed vectorized over the whole size series, and the
footprint path sizes tensors through a CSE'd tape shared by all sweep
points.  The seed recursive tree walk (``Expr.evalf`` and the traversal
oracles in ``tests/oracles.py``) is not a sweep path: tests and
``benchmarks/bench_compile_eval.py`` rebuild rows from it to check and
time this one.

A domain whose registry-length graph has more ops than
``GREEDY_OP_LIMIT`` (its footprint is program order) is never built:
its counts and footprints come from a fold over short unrolls of its
builder (:mod:`repro.analysis.fold`).

Results are **immutable**: :class:`SweepResult` and :class:`SweepRow`
are frozen dataclasses with tuple-backed rows, so the memoized cache
hands every caller the same object with no defensive deep copy (the
seed copied every row on every hit), and accidental mutation raises
``FrozenInstanceError`` instead of silently corrupting later readers.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from .. import obs
from ..deadline import check_deadline
from ..errors import error_context
from ..models.registry import DomainEntry, build_symbolic, get_domain
from .counters import StepCounts
from .firstorder import FirstOrderModel, derive_symbolic, fit_numeric
from .footprint import GREEDY_OP_LIMIT, estimate_footprint

__all__ = ["SweepResult", "SweepRow", "sweep_domain",
           "compute_sweep_rows"]

# Sweep-cache effectiveness: a hit means a report reused a memoized
# domain sweep; evictions mean the LRU bound displaced one.
_CACHE_HIT = obs.counter("analysis.sweep.cache.hit")
_CACHE_MISS = obs.counter("analysis.sweep.cache.miss")
_CACHE_EVICT = obs.counter("analysis.sweep.cache.eviction")
_POINTS = obs.counter("analysis.sweep.points")


@dataclass(frozen=True)
class SweepRow:
    """One model size's measurements (a point on Figs 7–10)."""

    size: float                 # hidden width or width multiplier
    params: float
    flops_per_sample: float     # Fig 7 y-axis
    step_bytes: float           # Fig 8 y-axis (fixed subbatch)
    intensity: float            # Fig 9 y-axis
    footprint_bytes: float      # Fig 10 y-axis
    bytes_fixed: float = 0.0    # λp component
    bytes_per_sample: float = 0.0  # µ√p component (per sample)


@dataclass(frozen=True)
class SweepResult:
    """A full domain sweep plus its fitted first-order model.

    Frozen: the memoized cache shares one instance among all callers,
    so mutation raises ``dataclasses.FrozenInstanceError``.  Use
    ``dataclasses.replace`` to derive a modified copy.
    """

    domain: str
    subbatch: int
    rows: Tuple[SweepRow, ...] = ()
    symbolic: Optional[FirstOrderModel] = None
    fitted: Optional[FirstOrderModel] = None


#: memoized sweeps, LRU-bounded so long report runs cannot grow memory
#: without limit; values are frozen and shared directly with callers
_SWEEP_CACHE: "OrderedDict[tuple, SweepResult]" = OrderedDict()
_SWEEP_CACHE_MAX = 32

#: registry-default sweeps (however the defaults were spelled), kept
#: outside the LRU bound: every report and plan reads them, so novel
#: sweeps must never evict them.  At most 5 domains x 2 footprint flags
#: entries.
_DEFAULT_SWEEPS: "OrderedDict[tuple, SweepResult]" = OrderedDict()


def _fold_for(key: str):
    """The domain's :class:`~repro.analysis.fold.Fold` if it is costed
    from one — it declares its unroll lengths, and at the registry
    length its graph is past ``GREEDY_OP_LIMIT`` — else None."""
    if not get_domain(key).loops:
        return None
    from .fold import fold_domain  # lint and the server never fold

    fold = fold_domain(key)
    return fold if fold.op_count > GREEDY_OP_LIMIT else None


def _counts_for(key: str) -> StepCounts:
    """The domain's StepCounts, whose compiled aggregate tapes every
    sweep configuration of the domain shares (kept on its graph, or on
    its fold)."""
    fold = _fold_for(key)
    if fold is not None:
        return fold.counts
    model = build_symbolic(key)
    return model.graph.memo("step_counts", lambda: StepCounts(model))


def sweep_domain(key: str, *, subbatch: Optional[int] = None,
                 include_footprint: bool = True,
                 sizes=None) -> SweepResult:
    """Run the Figure 7–10 sweep for one domain (memoized).

    Sweeps over large unrolled graphs are expensive; reports and
    benchmarks share one cached result per configuration, keyed on the
    resolved arguments (registry defaults filled in, sizes as floats),
    so spelling out the defaults shares the default entry.  The result
    is frozen (rows are a tuple of frozen dataclasses), so the cache
    returns the master directly — mutation raises.
    """
    entry = get_domain(key)
    default_sizes = tuple(float(x) for x in entry.sweep_sizes)
    subbatch = subbatch if subbatch is not None else entry.subbatch
    sizes = (tuple(float(x) for x in sizes) if sizes is not None
             else default_sizes)
    cache_key = (key, subbatch, include_footprint, sizes)
    is_default = subbatch == entry.subbatch and sizes == default_sizes
    cache = _DEFAULT_SWEEPS if is_default else _SWEEP_CACHE
    cached = cache.get(cache_key)
    if cached is not None:
        _CACHE_HIT.inc()
        cache.move_to_end(cache_key)
        return cached
    _CACHE_MISS.inc()
    result = _sweep_domain_uncached(key, subbatch=subbatch,
                                    include_footprint=include_footprint,
                                    sizes=sizes)
    cache[cache_key] = result
    while len(_SWEEP_CACHE) > _SWEEP_CACHE_MAX:
        _SWEEP_CACHE.popitem(last=False)
        _CACHE_EVICT.inc()
    return result


def compute_sweep_rows(key: str, sizes: Sequence[float],
                       subbatch: int, *,
                       include_footprint: bool = True) -> List[SweepRow]:
    """Evaluate the sweep rows for a series of sizes (no fitting).

    Each row depends only on its own binding: the aggregates run
    vectorized over the whole series, the footprint once per size.
    A folded domain's footprint is its fold's program-order peak.
    """
    sizes = list(sizes)
    _POINTS.inc(len(sizes))
    rows: List[SweepRow] = []
    with error_context(model=key, stage="sweep", subbatch=subbatch):
        counts = _counts_for(key)
        fold = _fold_for(key)
        model = counts.model

        def footprint_at(size: float) -> float:
            if not include_footprint:
                return 0.0
            bindings = counts.bind(size, subbatch)
            if fold is not None:
                return float(fold.footprint(bindings))
            return float(estimate_footprint(model,
                                            bindings).minimal_bytes)

        with obs.span("sweep.aggregates", "sweep", domain=key):
            series = counts.sweep_series(sizes, subbatch)
        for i, size in enumerate(sizes):
            check_deadline("sweep", domain=key, points_done=len(rows),
                           points_total=len(sizes))
            with obs.span("sweep.point", "sweep", domain=key,
                          size=size):
                rows.append(SweepRow(
                    size=size,
                    params=float(series["params"][i]),
                    flops_per_sample=float(
                        series["flops_per_sample"][i]),
                    step_bytes=float(series["step_bytes"][i]),
                    intensity=float(series["intensity"][i]),
                    footprint_bytes=footprint_at(size),
                    bytes_fixed=float(series["bytes_fixed"][i]),
                    bytes_per_sample=float(
                        series["bytes_per_sample"][i]),
                ))
    return rows


def _sweep_domain_uncached(key: str, *, subbatch: Optional[int] = None,
                           include_footprint: bool = True,
                           sizes=None) -> SweepResult:
    entry: DomainEntry = get_domain(key)
    counts = _counts_for(key)
    subbatch = subbatch if subbatch is not None else entry.subbatch
    sizes = list(sizes) if sizes is not None else list(entry.sweep_sizes)

    with obs.span("analysis.sweep", "sweep", domain=key,
                  subbatch=subbatch, n_sizes=len(sizes)):
        rows = compute_sweep_rows(key, sizes, subbatch,
                                  include_footprint=include_footprint)

        footprints = ([r.footprint_bytes for r in rows]
                      if include_footprint else None)
        with obs.span("sweep.fit", "sweep", domain=key):
            fitted = fit_numeric(
                key,
                [r.params for r in rows],
                [r.flops_per_sample for r in rows],
                [r.bytes_fixed for r in rows],
                [r.bytes_per_sample for r in rows],
                footprints,
                footprint_subbatch=subbatch,
            )
            # footprint has no closed symbolic form: reuse the numeric
            # fit's δ and φ
            symbolic = replace(
                derive_symbolic(counts, delta=fitted.delta),
                phi=fitted.phi,
            )
        return SweepResult(domain=key, subbatch=subbatch,
                           rows=tuple(rows), symbolic=symbolic,
                           fitted=fitted)
