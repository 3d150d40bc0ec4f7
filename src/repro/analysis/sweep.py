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
points.  The seed recursive tree-walk survives as
``engine="treewalk"``, the baseline that
``benchmarks/bench_compile_eval.py`` measures against.

Results are **immutable**: :class:`SweepResult` and :class:`SweepRow`
are frozen dataclasses with tuple-backed rows, so the memoized cache
hands every caller the same object with no defensive deep copy (the
seed copied every row on every hit), and accidental mutation raises
``FrozenInstanceError`` instead of silently corrupting later readers.

Large sweeps can be **sharded**: ``sweep_domain(..., shards=N)`` splits
the size series into N chunks evaluated independently (optionally on
the :mod:`repro.exec` process pool via ``max_workers``) and merges rows
row-for-row before fitting — merged output is bit-identical to the
unsharded sweep because every row's arithmetic depends only on its own
binding.
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
from .footprint import estimate_footprint

__all__ = ["SweepResult", "SweepRow", "sweep_domain",
           "compute_sweep_rows"]

# Sweep-cache effectiveness: a hit means a report reused a memoized
# domain sweep; evictions mean the LRU bound displaced one.
_CACHE_HIT = obs.counter("analysis.sweep.cache.hit")
_CACHE_MISS = obs.counter("analysis.sweep.cache.miss")
_CACHE_EVICT = obs.counter("analysis.sweep.cache.eviction")
_POINTS = obs.counter("analysis.sweep.points")
_SHARDS = obs.counter("analysis.sweep.shards")

#: greedy scheduling is O(V·ready) in treewalk mode; skip it above this
#: op count and use program order (the difference is small for these
#: graphs).  The compiled engine keeps the same threshold so both
#: engines report identical footprints.
_GREEDY_OP_LIMIT = 20_000


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

#: registry-default sweeps (no sizes, subbatch or shards given), kept
#: outside the LRU bound: every report and plan reads them, so novel
#: sweeps must never evict them.  At most 5 domains x 2 footprint
#: flags x 2 engines entries.
_DEFAULT_SWEEPS: "OrderedDict[tuple, SweepResult]" = OrderedDict()

#: StepCounts per domain — carries the batch-compiled aggregate tapes,
#: which every sweep configuration of a domain shares
_COUNTS_CACHE: dict = {}


def _counts_for(key: str) -> StepCounts:
    counts = _COUNTS_CACHE.get(key)
    if counts is None or counts.model is not build_symbolic(key):
        counts = StepCounts(build_symbolic(key))
        _COUNTS_CACHE[key] = counts
    return counts


def sweep_domain(key: str, *, subbatch: Optional[int] = None,
                 include_footprint: bool = True,
                 sizes=None, engine: str = "compiled",
                 shards: Optional[int] = None,
                 max_workers: int = 0) -> SweepResult:
    """Run the Figure 7–10 sweep for one domain (memoized).

    Sweeps over large unrolled graphs are expensive; reports and
    benchmarks share one cached result per configuration.  The result
    is frozen (rows are a tuple of frozen dataclasses), so the cache
    returns the master directly — mutation raises.

    ``engine="treewalk"`` selects the recursive-``evalf`` reference
    path; it produces the same rows as the compiled tapes (tested to
    1e-9).

    ``shards=N`` evaluates the size series in N independent chunks and
    merges them (row-for-row identical to the unsharded sweep);
    ``max_workers>0`` additionally fans the chunks out on the
    :mod:`repro.exec` process pool.
    """
    cache_key = (key, subbatch, include_footprint,
                 tuple(sizes) if sizes is not None else None, engine,
                 shards)
    is_default = sizes is None and subbatch is None and shards is None
    cache = _DEFAULT_SWEEPS if is_default else _SWEEP_CACHE
    cached = cache.get(cache_key)
    if cached is not None:
        _CACHE_HIT.inc()
        cache.move_to_end(cache_key)
        return cached
    _CACHE_MISS.inc()
    result = _sweep_domain_uncached(key, subbatch=subbatch,
                                    include_footprint=include_footprint,
                                    sizes=sizes, engine=engine,
                                    shards=shards,
                                    max_workers=max_workers)
    cache[cache_key] = result
    while len(_SWEEP_CACHE) > _SWEEP_CACHE_MAX:
        _SWEEP_CACHE.popitem(last=False)
        _CACHE_EVICT.inc()
    return result


def compute_sweep_rows(key: str, sizes: Sequence[float],
                       subbatch: int, *,
                       include_footprint: bool = True,
                       engine: str = "compiled") -> List[SweepRow]:
    """Evaluate the sweep rows for one chunk of sizes (no fitting).

    This is the shard unit: each row depends only on its own binding,
    so any partition of the size series concatenates to exactly the
    rows of the full sweep.  Used both by :func:`sweep_domain` and by
    :func:`repro.exec.tasks.sweep_shard` in pool workers.
    """
    if engine not in ("compiled", "treewalk"):
        raise ValueError(f"unknown sweep engine {engine!r}")
    with error_context(model=key, stage="sweep", subbatch=subbatch):
        return _compute_sweep_rows(key, sizes, subbatch,
                                   include_footprint=include_footprint,
                                   engine=engine)


def _compute_sweep_rows(key: str, sizes: Sequence[float],
                        subbatch: int, *, include_footprint: bool,
                        engine: str) -> List[SweepRow]:
    counts = _counts_for(key)
    model = counts.model
    sizes = list(sizes)
    use_greedy = len(model.graph) <= _GREEDY_OP_LIMIT
    _POINTS.inc(len(sizes))
    rows: List[SweepRow] = []

    def footprint_at(size: float) -> float:
        if not include_footprint:
            return 0.0
        return float(
            estimate_footprint(model, counts.bind(size, subbatch),
                               use_greedy=use_greedy,
                               engine=engine).minimal_bytes
        )

    if engine != "treewalk":
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
    else:
        # seed path: one recursive tree walk per aggregate per size
        for size in sizes:
            check_deadline("sweep", domain=key, points_done=len(rows),
                           points_total=len(sizes))
            with obs.span("sweep.point", "sweep", domain=key,
                          size=size):
                bindings = counts.bind(size, subbatch)
                rows.append(SweepRow(
                    size=size,
                    params=counts.params.evalf(bindings),
                    flops_per_sample=counts.flops_per_sample.evalf(
                        bindings),
                    step_bytes=counts.step_bytes.evalf(bindings),
                    intensity=_treewalk_intensity(counts, bindings),
                    footprint_bytes=footprint_at(size),
                    bytes_fixed=counts.bytes_fixed.evalf(bindings),
                    bytes_per_sample=counts.bytes_per_sample.evalf(
                        bindings),
                ))
    return rows


def _chunk_sizes(sizes: Sequence[float],
                 shards: int) -> List[List[float]]:
    """Split a size series into ``shards`` contiguous non-empty chunks."""
    shards = max(1, min(shards, len(sizes)))
    base, extra = divmod(len(sizes), shards)
    chunks, start = [], 0
    for i in range(shards):
        end = start + base + (1 if i < extra else 0)
        chunks.append(list(sizes[start:end]))
        start = end
    return chunks


def _sharded_rows(key: str, sizes: Sequence[float], subbatch: int, *,
                  include_footprint: bool, engine: str, shards: int,
                  max_workers: int) -> List[SweepRow]:
    """Evaluate the size series in chunks, optionally on the pool."""
    from ..exec.engine import ExecutionEngine, Task
    from ..exec.tasks import sweep_shard

    chunks = _chunk_sizes(sizes, shards)
    _SHARDS.inc(len(chunks))
    tasks = [
        Task(
            id=f"sweep:{key}:shard{i}",
            fn=sweep_shard,
            args=(key, tuple(chunk), subbatch, include_footprint,
                  engine),
        )
        for i, chunk in enumerate(chunks)
    ]
    results = ExecutionEngine(max_workers=max_workers).run(tasks)
    rows: List[SweepRow] = []
    for i in range(len(chunks)):
        for values in results[f"sweep:{key}:shard{i}"].value:
            rows.append(SweepRow(*values))
    return rows


def _sweep_domain_uncached(key: str, *, subbatch: Optional[int] = None,
                           include_footprint: bool = True,
                           sizes=None, engine: str = "compiled",
                           shards: Optional[int] = None,
                           max_workers: int = 0) -> SweepResult:
    entry: DomainEntry = get_domain(key)
    counts = _counts_for(key)
    subbatch = subbatch if subbatch is not None else entry.subbatch
    sizes = list(sizes) if sizes is not None else list(entry.sweep_sizes)

    with obs.span("analysis.sweep", "sweep", domain=key, engine=engine,
                  subbatch=subbatch, n_sizes=len(sizes),
                  shards=shards or 1):
        if shards is not None and shards > 1:
            rows = _sharded_rows(
                key, sizes, subbatch,
                include_footprint=include_footprint, engine=engine,
                shards=shards, max_workers=max_workers,
            )
        else:
            rows = compute_sweep_rows(
                key, sizes, subbatch,
                include_footprint=include_footprint, engine=engine,
            )

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


def _treewalk_intensity(counts: StepCounts, bindings) -> float:
    total_bytes = counts.step_bytes.evalf(bindings)
    if total_bytes == 0:
        return 0.0
    return counts.step_flops.evalf(bindings) / total_bytes
