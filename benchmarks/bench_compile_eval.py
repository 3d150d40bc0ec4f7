"""Benchmark: the compiled tape against the recursive tree walk.

Times both evaluation paths on the word-LM and ResNet (image) sweeps
at three levels:

* the Figure 7-10 aggregate expressions, per sweep size — recursive
  tree walk vs compiled tape replay vs the vectorized path;
* per-tensor size evaluation for the training graph (treewalk vs
  compiled replay);
* the full sweep pipeline: the seed sweep, rebuilt here from the
  retained oracles (``Expr.evalf`` of each aggregate; tree-walk tensor
  sizes, program order and the reference greedy schedule for the
  footprint; the same first-order fit) vs ``sweep_domain``'s compiled
  path.

It also records, for every registry graph, how far op classes compress
it (ops ÷ distinct op classes, ``Graph.op_classes``).  Every per-op
cost loop runs once per class, so a signature change that silently
splits classes shows up as a falling ratio; the ratio is
deterministic, so its floor cannot flake.

Writes ``BENCH_compile_eval.json`` at the repo root and asserts the
acceptance criteria: the compiled sweep on the largest stock domain
(word_lm) is at least 5x faster than the seed sweep with every row
matching to 1e-9 relative, and the scalar replay bit-identical to the
tree.  Committed floors for every recorded
speedup live in ``benchmarks/BENCH_floors.json`` and are enforced by
``benchmarks/check_bench_floors.py`` (the CI ``bench-regression``
job).

Alongside the timings, the JSON records ``cache_stats`` deltas from
the :mod:`repro.obs` counters — tape-cache, size-program-cache, and
sweep-cache hits/misses observed during the run — so a bench artifact
shows cache *effectiveness*, not just speedup.

Run:  pytest benchmarks/bench_compile_eval.py -s
"""

from dataclasses import fields
from time import perf_counter

from repro import obs
from repro.analysis.counters import _SWEEP_AGGREGATES, StepCounts
from repro.analysis.firstorder import derive_symbolic, fit_numeric
from repro.analysis.footprint import GREEDY_OP_LIMIT
from repro.analysis.sweep import (
    SweepRow,
    _counts_for,
    _sweep_domain_uncached,
    sweep_domain,
)
from repro.graph import liveness_peak, topological_order
from repro.graph.traversal import evaluate_sizes, size_program
from repro.models.registry import DOMAINS as REGISTRY
from repro.models.registry import build_symbolic, get_domain
from tests.oracles import (
    _evaluate_sizes_treewalk,
    _memory_greedy_order_reference,
)

DOMAINS = ("word_lm", "image")  # word LM + ResNet, per the paper's Fig 7

#: obs counters snapshotted around each benchmark phase
_CACHE_COUNTERS = {
    "tape_cache": ("analysis.tape_cache.hit", "analysis.tape_cache.miss"),
    "size_program_cache": ("graph.size_program.cache.hit",
                           "graph.size_program.cache.miss"),
    "sweep_cache": ("analysis.sweep.cache.hit",
                    "analysis.sweep.cache.miss",
                    "analysis.sweep.cache.eviction"),
}


def _counter_snapshot() -> dict:
    return {name: obs.counter(name).value
            for names in _CACHE_COUNTERS.values() for name in names}


def _cache_delta(before: dict) -> dict:
    """Per-cache hit/miss deltas since ``before`` (grouped, short keys)."""
    after = _counter_snapshot()
    out = {}
    for cache, names in _CACHE_COUNTERS.items():
        out[cache] = {
            name.rsplit(".", 1)[-1]: after[name] - before[name]
            for name in names
        }
    return out


def _timed(fn):
    t0 = perf_counter()
    out = fn()
    return perf_counter() - t0, out


def _rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1.0)


def _warm_aggregates(counts: StepCounts) -> None:
    """Force one-time aggregate Expr construction (shared by all
    engines) so neither timed path is charged for it."""
    for name in _SWEEP_AGGREGATES:
        getattr(counts, name)


def _bench_aggregates(key: str) -> dict:
    entry = get_domain(key)
    counts = StepCounts(build_symbolic(key))
    _warm_aggregates(counts)
    sizes = list(entry.sweep_sizes)
    rows = [counts.bind(s, entry.subbatch) for s in sizes]
    exprs = [getattr(counts, n) for n in _SWEEP_AGGREGATES]

    # the aggregates evaluate in microseconds once built, so repeat the
    # whole series to get timings above clock resolution
    reps = range(200)

    def treewalk():
        for _ in reps:
            out = [[e.evalf(r) for e in exprs] for r in rows]
        return out

    # compiled paths pay their own compile cost (counts caches the tape)
    def compiled():
        for _ in reps:
            out = [counts.compiled(*_SWEEP_AGGREGATES)(r) for r in rows]
        return out

    def vectorized():
        for _ in reps:
            out = counts.compiled(*_SWEEP_AGGREGATES).eval_many(rows)
        return out

    treewalk_s, reference = _timed(treewalk)
    compiled_s, scalar = _timed(compiled)
    vectorized_s, table = _timed(vectorized)

    err_scalar = max(
        _rel_err(scalar[i][j], reference[i][j])
        for i in range(len(rows)) for j in range(len(exprs))
    )
    err_vector = max(
        _rel_err(float(table[i, j]), reference[i][j])
        for i in range(len(rows)) for j in range(len(exprs))
    )
    assert err_scalar == 0.0, "compiled scalar path must be bit-identical"
    assert err_vector <= 1e-9

    return {
        "n_sizes": len(sizes),
        "n_aggregates": len(exprs),
        "treewalk_s": round(treewalk_s, 6),
        "compiled_s": round(compiled_s, 6),
        "vectorized_s": round(vectorized_s, 6),
        "speedup_compiled": round(treewalk_s / compiled_s, 2),
        "speedup_vectorized": round(treewalk_s / vectorized_s, 2),
        "max_rel_err_compiled": err_scalar,
        "max_rel_err_vectorized": err_vector,
    }


def _bench_tensor_sizes(key: str) -> dict:
    entry = get_domain(key)
    model = build_symbolic(key)
    binding = {model.size_symbol: list(entry.sweep_sizes)[-1],
               model.batch: entry.subbatch}

    treewalk_s, reference = _timed(
        lambda: _evaluate_sizes_treewalk(model.graph, binding)
    )
    size_program(model.graph)  # compile once
    compiled_s, sizes = _timed(lambda: evaluate_sizes(model.graph, binding))
    assert sizes == reference, "compiled tensor sizing must be exact"

    return {
        "n_tensors": len(reference),
        "treewalk_s": round(treewalk_s, 6),
        "compiled_s": round(compiled_s, 6),
        "speedup": round(treewalk_s / compiled_s, 2),
    }


def _seed_sweep(key: str, counts: StepCounts) -> list:
    """The seed sweep over the registry sizes, from retained oracles.

    One recursive ``evalf`` per aggregate per size; per size, tensor
    sizes by tree walk and the footprint as the smaller liveness peak
    of program order and the reference (rescanning) greedy schedule,
    skipped above ``GREEDY_OP_LIMIT`` as in the sweep.  Fits the same
    first-order model, so both timed paths do the same work.
    """
    entry = get_domain(key)
    graph = counts.model.graph
    use_greedy = len(graph) <= GREEDY_OP_LIMIT
    rows = []
    for size in entry.sweep_sizes:
        bindings = counts.bind(size, entry.subbatch)
        sizes = _evaluate_sizes_treewalk(graph, bindings)
        orders = [topological_order(graph)]
        if use_greedy:
            orders.append(_memory_greedy_order_reference(graph, sizes))
        step_bytes = counts.step_bytes.evalf(bindings)
        rows.append(SweepRow(
            size=size,
            params=counts.params.evalf(bindings),
            flops_per_sample=counts.flops_per_sample.evalf(bindings),
            step_bytes=step_bytes,
            intensity=(counts.step_flops.evalf(bindings) / step_bytes
                       if step_bytes else 0.0),
            footprint_bytes=float(min(
                liveness_peak(graph, order, sizes) for order in orders)),
            bytes_fixed=counts.bytes_fixed.evalf(bindings),
            bytes_per_sample=counts.bytes_per_sample.evalf(bindings),
        ))
    fitted = fit_numeric(
        key, [r.params for r in rows],
        [r.flops_per_sample for r in rows],
        [r.bytes_fixed for r in rows],
        [r.bytes_per_sample for r in rows],
        [r.footprint_bytes for r in rows],
        footprint_subbatch=entry.subbatch,
    )
    derive_symbolic(counts, delta=fitted.delta)
    return rows


def _bench_sweep(key: str) -> dict:
    # the sweep's own StepCounts: both paths read its aggregates, so
    # neither is charged for building them
    counts = _counts_for(key)
    _warm_aggregates(counts)

    treewalk_s, slow = _timed(lambda: _seed_sweep(key, counts))
    before = _counter_snapshot()
    compiled_s, fast = _timed(lambda: _sweep_domain_uncached(key))
    cache_stats = _cache_delta(before)

    err = max(
        _rel_err(getattr(ra, f.name), getattr(rb, f.name))
        for ra, rb in zip(fast.rows, slow)
        for f in fields(ra)
    )
    assert err <= 1e-9, f"{key}: sweep diverged from seed (rel err {err})"

    return {
        "n_sizes": len(fast.rows),
        "treewalk_s": round(treewalk_s, 6),
        "compiled_s": round(compiled_s, 6),
        "speedup": round(treewalk_s / compiled_s, 2),
        "max_rel_err": err,
        "cache_stats": cache_stats,
    }


def _bench_sweep_cache(key: str) -> dict:
    """Memoized-sweep effectiveness: cold miss, then a warm hit."""
    before = _counter_snapshot()
    cold_s, _ = _timed(lambda: sweep_domain(key))
    warm_s, _ = _timed(lambda: sweep_domain(key))
    stats = _cache_delta(before)
    stats["cold_s"] = round(cold_s, 6)
    stats["warm_s"] = round(warm_s, 6)
    stats["warm_speedup"] = round(cold_s / warm_s, 2) if warm_s else 0.0
    return stats


def _bench_op_classes(key: str) -> dict:
    graph = build_symbolic(key).graph
    n_classes = len(graph.op_classes())
    return {
        "ops": len(graph.ops),
        "classes": n_classes,
        "ratio": round(len(graph.ops) / n_classes, 2),
    }


def test_compile_eval(bench_json):
    results = {
        "op_classes": {k: _bench_op_classes(k) for k in sorted(REGISTRY)},
        "aggregates": {k: _bench_aggregates(k) for k in DOMAINS},
        "tensor_sizes": {k: _bench_tensor_sizes(k) for k in DOMAINS},
        "sweep_domain": {k: _bench_sweep(k) for k in DOMAINS},
        "sweep_cache": {k: _bench_sweep_cache(k) for k in DOMAINS},
    }
    path = bench_json("BENCH_compile_eval", results)

    print()
    for section, per_domain in results.items():
        for key, stats in per_domain.items():
            if "treewalk_s" not in stats:
                continue
            speed = stats.get("speedup", stats.get("speedup_vectorized"))
            print(f"{section:>13} {key:<8} treewalk {stats['treewalk_s']:8.3f}s"
                  f"  compiled {stats['compiled_s']:8.3f}s  {speed:6.1f}x")
    for key, stats in results["op_classes"].items():
        print(f"   op_classes {key:<8} {stats['ops']:6d} ops  "
              f"{stats['classes']:4d} classes  {stats['ratio']:8.1f}x")
    for key, stats in results["sweep_cache"].items():
        print(f"  sweep_cache {key:<8} cold {stats['cold_s']:8.3f}s"
              f"  warm {stats['warm_s']:8.3f}s"
              f"  hits {stats['sweep_cache']['hit']}")
    print(f"wrote {path}")

    # acceptance: >=5x on the largest stock domain's full sweep
    assert results["sweep_domain"]["word_lm"]["speedup"] >= 5.0
