"""Word-LM frontier case study (paper §6, Table 5).

Walks the full optimization ladder for training a frontier word LM in
~7 days/epoch:

1. **Best-case Roofline baseline** — the Table 3 frontier word LM
   (γ·b·p FLOPs, λ·p + µ·b·√p bytes) on one accelerator.
2. **Algorithmic optimization** — the projected-LSTM variant with the
   production vocabulary (Jozefowicz et al.): an explicit graph whose
   smaller per-step FLOPs set the new baseline (paper: 11.7×).
3. **Cache-hierarchy-aware refinement** — tiled-matmul re-streaming
   under the 6 MB cache (utilization 80% → ~46%).
4. **Data parallelism** — ring-allreduce scaling (512/1024 workers).
5. **Layer-wise model parallelism (4×)** — stages on separate
   accelerators; footprint per accelerator drops, utilization pays.
6. **Embedding sharding** — even out per-accelerator memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from ..analysis.counters import StepCounts
from ..analysis.firstorder import FirstOrderModel
from ..analysis.footprint import estimate_footprint
from ..hardware.accelerator import AcceleratorConfig, V100_LIKE
from ..hardware.cache import cache_aware_step_time, cache_aware_total_bytes
from ..hardware.interconnect import ring_allreduce_time
from ..hardware.roofline import roofline_time
from ..models.word_lm import build_word_lm
from .model_parallel import plan_layer_parallel, shard_embedding, split_stages

__all__ = ["CaseStudyRow", "CaseStudyResult", "run_case_study",
           "CASE_STUDY_VOCAB", "CASE_STUDY_PROJECTION"]

_SECONDS_PER_DAY = 86_400.0

#: production vocabulary of the case study (Jozefowicz et al. [19])
CASE_STUDY_VOCAB = 800_000
#: LSTM projection width (Sak et al. [30])
CASE_STUDY_PROJECTION = 1536
#: hidden width chosen so the optimized model's step costs land at the
#: paper's scale (~10 s best-case step, ~100 GB step footprint)
CASE_STUDY_HIDDEN = 6144


@dataclass(frozen=True)
class CaseStudyRow:
    """One Table 5 line."""

    stage: str
    accelerators: int
    batch_size: int
    memory_per_accel_gb: Tuple[float, ...]
    cache: str
    days_per_epoch: float
    flop_utilization: float


@dataclass(frozen=True)
class CaseStudyResult:
    """The Table 5 ladder plus the step costs Fig. 12 scales.

    Frozen: :func:`run_case_study` memoizes one instance per resolved
    configuration and shares it among callers, so mutation raises
    ``dataclasses.FrozenInstanceError``.
    """

    rows: Tuple[CaseStudyRow, ...]
    #: FLOP reduction of the algorithmic (projected-LSTM) optimization
    algorithmic_speedup: float
    optimized_params: float
    baseline_step_time: float
    optimized_step_time: float
    cache_aware_step_time: float
    layer_parallel_speedup: float


def _epoch_days(step_time: float, tokens_per_epoch: float,
                tokens_per_step: float) -> float:
    steps = tokens_per_epoch / tokens_per_step
    return steps * step_time / _SECONDS_PER_DAY


def run_case_study(
    *,
    accel: AcceleratorConfig = V100_LIKE,
    baseline: Optional[FirstOrderModel] = None,
    target_params: float = 23.8e9,
    tokens_per_epoch: float = 77e9,
    subbatch: int = 128,
    data_parallel_options: Sequence[int] = (1024, 512),
    hidden: int = CASE_STUDY_HIDDEN,
    seq_len: int = 80,
    vocab: int = CASE_STUDY_VOCAB,
    projection: int = CASE_STUDY_PROJECTION,
) -> CaseStudyResult:
    """Run the §6 optimization ladder; returns the Table 5 rows.

    Memoized on the resolved arguments (the default baseline read from
    the word-LM sweep, the worker options as a tuple), so Table 5 and
    Fig. 12 share one build of the projected word LM however they
    spell the defaults.
    """
    if baseline is None:
        from ..analysis.sweep import sweep_domain

        baseline = sweep_domain("word_lm", include_footprint=False).symbolic
    return _case_study(accel, baseline, target_params, tokens_per_epoch,
                       subbatch, tuple(data_parallel_options), hidden,
                       seq_len, vocab, projection)


@lru_cache(maxsize=8)
def _case_study(accel: AcceleratorConfig, baseline: FirstOrderModel,
                target_params: float, tokens_per_epoch: float,
                subbatch: int, data_parallel_options: Tuple[int, ...],
                hidden: int, seq_len: int, vocab: int,
                projection: int) -> CaseStudyResult:
    """The ladder for one resolved configuration (LRU-memoized)."""
    rows: List[CaseStudyRow] = []

    # ---- stage 0: Table 3 frontier baseline (first-order) --------------
    ct0 = baseline.step_flops(target_params, subbatch)
    at0 = baseline.step_bytes(target_params, subbatch)
    rt0 = roofline_time(ct0, at0, accel)

    # ---- stage 1: algorithmic optimization (projected LSTM) ------------
    model = build_word_lm(hidden=None, layers=2, vocab=vocab,
                          seq_len=seq_len, projection=projection)
    counts = StepCounts(model)
    bindings = counts.bind(hidden, subbatch)
    ct1 = counts.step_flops.evalf(bindings)
    at1 = counts.step_bytes.evalf(bindings)
    rt1 = roofline_time(ct1, at1, accel)
    footprint = estimate_footprint(model, bindings).minimal_bytes

    tokens_per_step = subbatch * seq_len
    mem_gb = footprint / 1e9
    rows.append(CaseStudyRow(
        stage="Best-case (Roofline) baseline",
        accelerators=1,
        batch_size=subbatch,
        memory_per_accel_gb=(mem_gb,),
        cache="--",
        days_per_epoch=_epoch_days(rt1.step_time, tokens_per_epoch,
                                   tokens_per_step),
        flop_utilization=rt1.flop_utilization,
    ))

    # ---- stage 2: cache-hierarchy-aware ---------------------------------
    cache_rt = cache_aware_step_time(model.graph, accel, bindings)
    step2 = cache_rt["step_time"]
    rows.append(CaseStudyRow(
        stage="Cache-hierarchy-aware baseline",
        accelerators=1,
        batch_size=subbatch,
        memory_per_accel_gb=(mem_gb,),
        cache="6MB",
        days_per_epoch=_epoch_days(step2, tokens_per_epoch,
                                   tokens_per_step),
        flop_utilization=cache_rt["flop_utilization"],
    ))

    # ---- stage 3: data parallelism --------------------------------------
    grad_bytes = 4.0 * counts.params.evalf(bindings)
    for option, workers in enumerate(data_parallel_options, start=1):
        comm = ring_allreduce_time(grad_bytes, workers,
                                   accel.interconnect_bandwidth)
        step = step2 + comm
        rows.append(CaseStudyRow(
            stage=f"w/ Data Parallelism (Option {option})",
            accelerators=workers,
            batch_size=subbatch * workers,
            memory_per_accel_gb=(mem_gb,),
            cache="6MB",
            days_per_epoch=_epoch_days(
                step, tokens_per_epoch, tokens_per_step * workers
            ),
            flop_utilization=ct1 / step / accel.peak_flops,
        ))

    # ---- stage 4: + layer parallelism (4 stages) -------------------------
    stage_prefixes = {
        "embedding": ["embedding", "embed", "step_split", "x_t", "ids"],
        "lstm0": ["lstm0"],
        "lstm1": ["lstm1"],
        "output": ["w_out", "b_out", "logits", "xent", "loss",
                   "hidden_all"],
    }
    stages = split_stages(model.graph, stage_prefixes, bindings)
    # inflate per-stage time to the cache-aware level proportionally
    inflation = step2 / rt1.step_time if rt1.step_time else 1.0
    # boundary payload: one [b, h] activation per time step per crossing;
    # fwd + bwd crossings across 3 boundaries
    boundary_bytes = 4.0 * subbatch * hidden
    transfers = 2 * 3 * seq_len
    lp = plan_layer_parallel(
        stages, accel,
        boundary_activation_bytes=boundary_bytes,
        boundary_transfers=transfers,
        total_footprint_bytes=float(footprint),
        time_inflation=inflation,
    )
    dp_workers = data_parallel_options[1]
    comm = ring_allreduce_time(grad_bytes / lp.accelerators, dp_workers,
                               accel.interconnect_bandwidth)
    step_lp = lp.step_time + comm
    total_accels = dp_workers * lp.accelerators
    rows.append(CaseStudyRow(
        stage=f"+ Layer Parallelism ({lp.accelerators}x)",
        accelerators=total_accels,
        batch_size=subbatch * dp_workers,
        memory_per_accel_gb=tuple(m / 1e9 for m in lp.stage_memory_bytes),
        cache="6MB",
        days_per_epoch=_epoch_days(
            step_lp, tokens_per_epoch, tokens_per_step * dp_workers
        ),
        flop_utilization=ct1 / step_lp / accel.peak_flops
        / lp.accelerators,
    ))

    # ---- stage 5: + embedding sharding -----------------------------------
    sharded = shard_embedding(lp)
    rows.append(CaseStudyRow(
        stage="+ Shard the Embedding Layer",
        accelerators=total_accels,
        batch_size=subbatch * dp_workers,
        memory_per_accel_gb=tuple(m / 1e9 for m in sharded),
        cache="6MB",
        days_per_epoch=rows[-1].days_per_epoch,
        flop_utilization=rows[-1].flop_utilization,
    ))

    return CaseStudyResult(
        rows=tuple(rows),
        algorithmic_speedup=rt0.step_time / rt1.step_time,
        optimized_params=counts.params.evalf(bindings),
        baseline_step_time=rt0.step_time,
        optimized_step_time=rt1.step_time,
        cache_aware_step_time=step2,
        layer_parallel_speedup=lp.speedup,
    )
