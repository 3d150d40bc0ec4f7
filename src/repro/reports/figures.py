"""Generators for the paper's evaluation figures (Figures 6–12)."""

from __future__ import annotations

import numpy as np

from ..analysis.sweep import sweep_domain
from ..hardware.accelerator import AcceleratorConfig, V100_LIKE
from ..hardware.roofline import roofline_time
from ..models.registry import DOMAINS
from ..planner.data_parallel import scale_data_parallel
from ..planner.subbatch import choose_subbatch, subbatch_curve
from ..scaling.curves import LearningCurve
from ..scaling.project import project_all
from .common import Figure, Series
from .tables import samples_per_step

__all__ = ["fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12"]


def fig6() -> Figure:
    """Sketch of a three-region power-law learning curve."""
    curve = LearningCurve(alpha=20.0, beta=-0.35, best_guess=4.0,
                          irreducible=0.08)
    sizes = np.logspace(0, 12, 72)
    errors = [curve.error(m) for m in sizes]
    regions = [curve.region(m) for m in sizes]
    notes = []
    for region in ("small-data", "power-law", "irreducible"):
        span = [m for m, r in zip(sizes, regions) if r == region]
        if span:
            notes.append(
                f"{region} region: m in [{span[0]:.3g}, {span[-1]:.3g}]"
            )
    return Figure(
        title="Figure 6: Sketch of power-law learning curves",
        x_label="training set size (samples)",
        y_label="generalization error",
        series=[Series("learning curve", list(sizes), errors)],
        log_x=True,
        log_y=True,
        notes=notes,
    )


def _sweep_figure(value_of, title: str, y_label: str, *,
                  include_footprint: bool = False) -> Figure:
    series = []
    for key in DOMAINS:
        sweep = sweep_domain(key, include_footprint=include_footprint)
        series.append(Series(
            DOMAINS[key].display,
            [r.params for r in sweep.rows],
            [value_of(r) for r in sweep.rows],
        ))
    return Figure(title=title, x_label="model size (parameters)",
                  y_label=y_label, series=series)


def fig7() -> Figure:
    """Per-sample FLOPs growth with parameter count, all domains."""
    fig = _sweep_figure(
        lambda r: r.flops_per_sample / 1e9,
        "Figure 7: Per-training-sample GFLOPs vs model size",
        "GFLOPs / train step / sample",
    )
    fig.notes.append("paper: linear above 30-100M params; slopes "
                     "(FLOPs/param) range 149 (NMT) to 1111 (ResNet)")
    return fig


def fig8() -> Figure:
    """Algorithmic GB accessed per training step vs model size."""
    fig = _sweep_figure(
        lambda r: r.step_bytes / 1e9,
        "Figure 8: Algorithmic GB accessed/train step vs model size",
        "GB accessed / train step",
    )
    fig.notes.append("fixed per-domain subbatch; nearly linear "
                     "asymptotes (lambda*p term dominates for RNNs)")
    return fig


def fig9() -> Figure:
    """Graph-level operational intensity vs model size."""
    fig = _sweep_figure(
        lambda r: r.intensity,
        "Figure 9: Algorithmic operational intensity vs model size",
        "operational intensity (FLOP/B)",
    )
    fig.notes.append("fixed subbatch: intensity levels off as model "
                     "grows (paper: plateaus at moderate FLOP/B for "
                     "RNNs)")
    return fig


def fig10() -> Figure:
    """Minimal memory footprint vs model size, with allocator overlay."""
    from ..graph import evaluate_sizes, topological_order
    from ..models.registry import build_symbolic
    from ..runtime.allocator import simulate_allocator
    from ..analysis.counters import StepCounts

    series = []
    alloc_series = []
    for key in DOMAINS:
        sweep = sweep_domain(key, include_footprint=True)
        series.append(Series(
            DOMAINS[key].display,
            [r.params for r in sweep.rows],
            [r.footprint_bytes / 1e9 for r in sweep.rows],
        ))
    # allocator overlay for the word LM: reproduces the 12 GB swap knee
    model = build_symbolic("word_lm")
    counts = StepCounts(model)
    order = topological_order(model.graph)
    xs, ys = [], []
    # extend beyond the sweep so the overlay clearly crosses 12 GB
    overlay_sizes = list(DOMAINS["word_lm"].sweep_sizes) + [6144, 8192]
    for size in overlay_sizes:
        bindings = counts.bind(size, DOMAINS["word_lm"].subbatch)
        sizes_map = evaluate_sizes(model.graph, bindings)
        report = simulate_allocator(model.graph, order, sizes_map,
                                    capacity_bytes=12 * 10**9)
        xs.append(counts.params.evalf(bindings))
        ys.append(report.peak_resident_bytes / 1e9)
    alloc_series.append(Series("Word LM (12GB allocator)", xs, ys))

    return Figure(
        title="Figure 10: Minimal memory footprint vs model size",
        x_label="model size (parameters)",
        y_label="minimal memory footprint (GB)",
        series=series + alloc_series,
        notes=["allocator overlay flattens at ~80% of 12GB when the "
               "model no longer fits (TF swap behaviour in the paper)"],
    )


def fig11(*, accel: AcceleratorConfig = V100_LIKE) -> Figure:
    """Subbatch size effect on op intensity and step time (word LM)."""
    sweep = sweep_domain("word_lm")
    fo = sweep.symbolic
    params = project_all()["word_lm"].target_params
    subbatches = [2.0**k for k in range(0, 19)]
    points = subbatch_curve(fo, params, accel, subbatches)
    choice = choose_subbatch(fo, params, accel)
    return Figure(
        title="Figure 11: Subbatch size effect on word-LM operational "
              "intensity and per-sample step time",
        x_label="subbatch size",
        y_label="intensity (FLOP/B) / time per sample (s)",
        series=[
            Series("graph-level op intensity",
                   [p.subbatch for p in points],
                   [p.intensity for p in points]),
            Series("step time / sample (s)",
                   [p.subbatch for p in points],
                   [p.time_per_sample for p in points]),
            Series("accelerator ridge point",
                   [p.subbatch for p in points],
                   [accel.effective_ridge_point for _ in points]),
        ],
        log_x=True,
        log_y=True,
        notes=[
            f"ridge-match subbatch: {choice.ridge_match:.0f}",
            f"min-latency subbatch: {choice.min_latency:.0f} "
            f"(chosen {choice.chosen}; paper chose 128)",
            f"intensity-saturation subbatch: {choice.saturation:.0f}",
        ],
    )


def fig12(*, accel: AcceleratorConfig = V100_LIKE,
          workers=None) -> Figure:
    """Data parallelism effect on epoch time and utilization."""
    from ..planner.case_study import run_case_study

    study = run_case_study(accel=accel)
    step = study.cache_aware_step_time
    params = study.optimized_params
    flops = step * accel.achievable_flops * (
        study.rows[1].flop_utilization / accel.compute_efficiency
    )
    workers = workers or [2**k for k in range(0, 15)]
    points = scale_data_parallel(
        local_step_time=step,
        local_step_flops=flops,
        params=params,
        subbatch=128,
        samples_per_epoch=77e9,
        samples_per_step_per_worker=samples_per_step("word_lm", 128),
        accel=accel,
        workers=workers,
    )
    return Figure(
        title="Figure 12: Data parallelism effect on word-LM epoch "
              "time and utilization (subbatch=128)",
        x_label="data-parallel workers",
        y_label="days/epoch (o) and FLOP utilization (x)",
        series=[
            Series("per-epoch time (days)",
                   [p.workers for p in points],
                   [p.epoch_days for p in points]),
            Series("FLOP utilization",
                   [p.workers for p in points],
                   [p.flop_utilization for p in points]),
        ],
        log_x=True,
        log_y=True,
        notes=["paper: 1024 workers -> 6.2 days/epoch at 34% "
               "utilization; utilization declines as allreduce "
               "overhead grows"],
    )
