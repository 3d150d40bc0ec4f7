"""Ablation studies of the paper's design levers (§6.2.3 discussion).

Beyond reproducing the paper's exhibits, these quantify the knobs its
discussion section argues about:

* **cache size** — "increasing on-chip cache size ... is likely to
  proportionally reduce input re-streaming";
* **memory capacity** — "a possible approach ... significantly
  increase accelerator memory capacity" (how many model-parallel ways
  each frontier domain needs vs capacity);
* **interconnect bandwidth** — the data-parallel utilization floor;
* **precision** — "low-precision ... may reduce model or activation
  tensor size ... by 1.5–10×";
* **footprint scheduler** — program-order vs memory-greedy vs in-place
  traversal estimates (§4.5 methodology sensitivity).
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..analysis.counters import StepCounts
from ..analysis.footprint import estimate_footprint
from ..analysis.sweep import sweep_domain
from ..hardware.accelerator import (
    USABLE_FRACTION,
    V100_LIKE,
    AcceleratorConfig,
)
from ..hardware.cache import cache_aware_step_time
from ..hardware.interconnect import ring_allreduce_time
from ..hardware.roofline import roofline_time
from ..models.registry import DOMAINS, build_symbolic
from ..models.word_lm import build_word_lm
from ..scaling.project import project_all
from .common import Table, si

__all__ = [
    "auto_plan_frontier",
    "ablation_cache_size",
    "ablation_memory_capacity",
    "ablation_interconnect",
    "ablation_precision",
    "ablation_scheduler",
    "ablation_fusion",
    "ablation_compression",
]

_MB = 2**20


def _case_model(dtype_bytes: int = 4):
    return build_word_lm(hidden=None, layers=2, vocab=40_000, seq_len=80,
                         projection=1024, dtype_bytes=dtype_bytes)


def ablation_cache_size(
    sizes_mb: Sequence[float] = (1.5, 3, 6, 12, 24, 48, 96),
    *, hidden: int = 4096, subbatches: Sequence[int] = (128, 8),
) -> Table:
    """Word-LM step time / utilization vs on-chip cache capacity.

    Two regimes: at the production subbatch (128) the matmuls are
    compute-bound, so larger caches cut *traffic* proportionally but
    barely move step time; at a small subbatch the step is
    memory-bound and the cache size shows up directly in utilization.
    """
    model = _case_model()
    counts = StepCounts(model)
    rows = []
    for subbatch in subbatches:
        bindings = counts.bind(hidden, subbatch)
        algorithmic = counts.step_bytes.evalf(bindings)
        for mb in sizes_mb:
            accel = V100_LIKE.scaled(cache_bytes=int(mb * _MB))
            result = cache_aware_step_time(model.graph, accel, bindings)
            rows.append([
                str(subbatch),
                f"{mb:g} MB",
                f"{result['step_time']:.3f}",
                f"{result['bytes'] / 1e12:.3f}",
                f"{result['bytes'] / algorithmic:.2f}x",
                f"{result['flop_utilization'] * 100:.1f}%",
            ])
    return Table(
        title="Ablation: on-chip cache size vs word-LM training step "
              "(per-op Roofline, tiled-matmul traffic)",
        headers=["Subbatch", "L2 cache", "Step (s)", "Traffic TB/step",
                 "vs algorithmic", "FLOP util"],
        rows=rows,
        notes=["paper §6.2.3: larger caches proportionally reduce "
               "input re-streaming for RNN matmuls — counter to "
               "emerging compute-first accelerator designs",
               "reproduction finding: at subbatch 128 the tiled "
               "matmuls stay compute-bound, so the cache lever moves "
               "traffic (and energy), not time; the paper's 80%->46% "
               "utilization drop needs a harsher cache model than "
               "optimal tiling"],
    )


def ablation_memory_capacity(
    capacities_gb: Sequence[float] = (16, 32, 64, 128, 256, 512),
) -> Table:
    """Model-parallel ways required per frontier domain vs capacity.

    Uses Table 3 frontier footprints; a domain fits when footprint ≤
    80% of capacity (the allocator's usable fraction).
    """
    projections = project_all()
    rows = []
    for key in DOMAINS:
        fo = sweep_domain(key).symbolic
        params = projections[key].target_params
        footprint = fo.footprint_bytes(params, DOMAINS[key].subbatch)
        cells = [DOMAINS[key].display, si(footprint) + "B"]
        for cap in capacities_gb:
            usable = USABLE_FRACTION * cap * 1e9
            ways = max(1, int(-(-footprint // usable)))
            cells.append(str(ways))
        rows.append(cells)
    return Table(
        title="Ablation: model-parallel ways needed vs accelerator "
              "memory capacity (frontier models, Table 3 footprints)",
        headers=["Domain", "Frontier footprint"]
        + [f"{c:g} GB" for c in capacities_gb],
        rows=rows,
        notes=["paper §6.2.3: language footprints exceed 16-32 GB "
               "accelerators by 8-100x; bigger memories directly cut "
               "the required model-parallel factor"],
    )


def ablation_interconnect(
    bandwidths_gbs: Sequence[float] = (7, 14, 28, 56, 112, 224, 448),
    *, workers: int = 1024, params: float = 6.65e9,
    local_step_time: float = 10.0,
) -> Table:
    """Data-parallel utilization at 1024 workers vs link bandwidth."""
    rows = []
    for bw in bandwidths_gbs:
        comm = ring_allreduce_time(4.0 * params, workers, bw * 1e9)
        step = local_step_time + comm
        rows.append([
            f"{bw:g} GB/s",
            f"{comm:.2f}",
            f"{step:.2f}",
            f"{local_step_time / step * 100:.1f}%",
        ])
    return Table(
        title=f"Ablation: interconnect bandwidth vs {workers}-worker "
              "data-parallel word-LM step",
        headers=["Link bw", "Allreduce (s)", "Step (s)",
                 "Relative efficiency"],
        rows=rows,
        notes=["ring allreduce moves 2(n-1)/n * 4 B/param per step; "
               "the paper assumes 56 GB/s (Table 4)"],
    )


def ablation_precision(*, hidden: int = 2048,
                       subbatch: int = 128) -> Table:
    """fp32 vs fp16 storage: bytes, intensity, footprint, step time."""
    rows = []
    for dtype, label in ((4, "fp32 (4 B)"), (2, "fp16 (2 B)")):
        # fp32 storage is the registry word LM: its build and the
        # StepCounts its sweep memoized are shared
        model = (build_symbolic("word_lm") if dtype == 4 else
                 build_word_lm(vocab=40_000, layers=2, seq_len=80,
                               dtype_bytes=dtype))
        counts = model.graph.memo("step_counts",
                                  lambda: StepCounts(model))
        bindings = counts.bind(hidden, subbatch)
        ct = counts.step_flops.evalf(bindings)
        at = counts.step_bytes.evalf(bindings)
        foot = estimate_footprint(model, bindings).minimal_bytes
        rt = roofline_time(ct, at, V100_LIKE)
        rows.append([
            label,
            f"{at / 1e9:.1f}",
            f"{ct / at:.1f}",
            f"{foot / 1e9:.2f}",
            f"{rt.step_time:.3f}",
        ])
    return Table(
        title="Ablation: storage precision for the word LM "
              f"(h={hidden}, subbatch={subbatch})",
        headers=["Precision", "GB accessed/step", "Intensity (FLOP/B)",
                 "Footprint (GB)", "Step (s)"],
        rows=rows,
        notes=["halving element width halves traffic and footprint and "
               "doubles operational intensity at equal FLOPs — the "
               "§6.2.3 1.5-10x memory-reduction lever (real fp16 "
               "hardware would also raise peak FLOPs)"],
    )


def ablation_scheduler(
    *, domains: Sequence[str] = ("word_lm", "nmt", "image"),
) -> Table:
    """Footprint estimate vs traversal strategy (§4.5 sensitivity)."""
    rows = []
    for key in domains:
        entry = DOMAINS[key]
        model = entry.build_model(**_small_config(key))
        bindings = {model.batch: 8}
        if model.size_symbol is not None:
            bindings[model.size_symbol] = _small_size(key)
        greedy = estimate_footprint(model, bindings)
        inplace = estimate_footprint(model, bindings, inplace=True)
        program = greedy.program_order_bytes
        rows.append([
            entry.display,
            si(program) + "B",
            f"{greedy.greedy_bytes / program * 100:.1f}%",
            f"{inplace.minimal_bytes / program * 100:.1f}%",
            f"{greedy.lower_bound_bytes / program * 100:.1f}%",
        ])
    return Table(
        title="Ablation: footprint estimate vs traversal strategy "
              "(program order = 100%)",
        headers=["Domain", "Program-order bytes", "Memory-greedy",
                 "+ in-place ops", "Lower bound"],
        rows=rows,
        notes=["the paper's estimates 'slightly overestimate' TF "
               "because of in-place ops (§4.5); the greedy schedule "
               "and in-place aliasing bound that gap"],
    )


def _small_config(key: str) -> dict:
    return {
        "word_lm": dict(seq_len=20, vocab=5000),
        "char_lm": dict(seq_len=20, vocab=98, depth=4),
        "nmt": dict(seq_len=10, vocab=5000),
        "speech": dict(audio_steps=40, decoder_steps=12),
        "image": dict(image_size=64),
    }[key]


def _small_size(key: str) -> float:
    return {"word_lm": 512, "char_lm": 512, "nmt": 512,
            "speech": 256, "image": 1}[key]


def ablation_fusion(
    *, domains: Sequence[str] = ("word_lm", "char_lm", "nmt", "image"),
) -> Table:
    """Elementwise-kernel fusion vs training-step traffic (§6.2.3).

    Fusion keeps pointwise intermediates on chip: same FLOPs, fewer
    bytes, higher operational intensity — one of the paper's suggested
    levers on RNN utilization.
    """
    from ..graph import fused_total_bytes, fusion_groups

    rows = []
    for key in domains:
        entry = DOMAINS[key]
        model = entry.build_model(**_small_config(key))
        bindings = {model.batch: entry.subbatch}
        if model.size_symbol is not None:
            bindings[model.size_symbol] = _small_size(key)
        g = model.graph
        plain = g.total_bytes_accessed().evalf(bindings)
        fused = fused_total_bytes(g).evalf(bindings)
        flops = g.total_flops().evalf(bindings)
        groups = fusion_groups(g)
        fused_ops = sum(len(grp) for grp in groups if len(grp) > 1)
        rows.append([
            entry.display,
            str(fused_ops),
            f"{(1 - fused / plain) * 100:.1f}%",
            f"{flops / plain:.1f}",
            f"{flops / fused:.1f}",
        ])
    return Table(
        title="Ablation: elementwise kernel fusion vs step traffic",
        headers=["Domain", "Ops fused", "Bytes saved",
                 "Intensity before", "Intensity after"],
        rows=rows,
        notes=["paper §6.2.3: 'better cache tiling, kernel "
               "optimization and fusion techniques might also help' "
               "RNN operational intensity"],
    )


def ablation_compression(
    ratios: Sequence[float] = (1, 4, 16, 64, 256),
    *, workers: int = 1024, params: float = 6.65e9,
    local_step_time: float = 10.0,
) -> Table:
    """Gradient compression vs data-parallel overhead (§6.2.3 refs).

    QSGD/TernGrad-style quantization shrinks the allreduce payload;
    the table shows the recovered step time and relative efficiency.
    """
    from ..planner.data_parallel import scale_data_parallel

    rows = []
    for ratio in ratios:
        point = scale_data_parallel(
            local_step_time=local_step_time,
            local_step_flops=local_step_time * V100_LIKE.achievable_flops,
            params=params,
            subbatch=128,
            samples_per_epoch=77e9,
            samples_per_step_per_worker=128 * 80,
            accel=V100_LIKE,
            workers=[workers],
            compression_ratio=ratio,
        )[0]
        rows.append([
            f"{ratio:g}x",
            f"{point.allreduce_time:.3f}",
            f"{point.step_time:.2f}",
            f"{local_step_time / point.step_time * 100:.1f}%",
        ])
    return Table(
        title=f"Ablation: gradient compression vs {workers}-worker "
              "data-parallel word-LM step",
        headers=["Compression", "Allreduce (s)", "Step (s)",
                 "Relative efficiency"],
        rows=rows,
        notes=["models QSGD / TernGrad / Deep Gradient Compression "
               "(paper refs [5, 21, 37]): payload / ratio, compute "
               "unchanged"],
    )


def auto_plan_frontier(*, target_days: float = 7.0,
                       max_accelerators: int = 16384) -> Table:
    """Auto-planned parallel configuration per frontier domain.

    The §6.2.3 future-work feature: for each Table 3 frontier model,
    search (subbatch, model-parallel, data-parallel) for the cheapest
    plan meeting ``target_days`` per epoch (or the fastest feasible
    plan when the target is out of reach).
    """
    from ..planner.auto import plan_auto
    from .tables import _UNITS_PER_SAMPLE

    projections = project_all()
    rows = []
    for key in DOMAINS:
        fo = sweep_domain(key).symbolic
        proj = projections[key]
        result = plan_auto(
            fo, proj.target_params,
            samples_per_epoch=proj.target_samples,
            units_per_sample=_UNITS_PER_SAMPLE[key],
            max_accelerators=max_accelerators,
            target_days=target_days,
        )
        best = result.best
        if best is None:
            rows.append([DOMAINS[key].display, "--", "--", "--", "--",
                         "infeasible", "--"])
            continue
        rows.append([
            DOMAINS[key].display,
            str(best.subbatch),
            str(best.model_parallel),
            str(best.data_parallel),
            str(best.accelerators),
            f"{best.epoch_days:.2f}"
            + ("" if result.met_target else " (!)"),
            f"{best.flop_utilization * 100:.1f}%",
        ])
    return Table(
        title=f"Auto-planned parallelism per frontier domain "
              f"(target {target_days:g} days/epoch, "
              f"<= {max_accelerators} accelerators)",
        headers=["Domain", "Subbatch", "Model-par", "Data-par",
                 "Accels", "Days/epoch", "FLOP util"],
        rows=rows,
        notes=["implements the paper's §6.2.3 future work: frameworks "
               "'should aim to automatically ... subdivide the "
               "computation'; (!) marks domains where even the full "
               "budget misses the target"],
    )
