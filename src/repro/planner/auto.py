"""Automatic parallelism planning (paper §6.2.3 future work).

The paper closes its case study wishing that "frameworks should aim to
automatically and dynamically subdivide the computation, automatically
map appropriate compute graph portions to compute resources".  This
module implements that search over the first-order requirement models:

given a frontier model (γ, λ, µ, δ, φ constants + parameter count), an
accelerator, and an accelerator budget, enumerate

    (subbatch b, model-parallel ways m, data-parallel ways n)

configurations, apply the §6 cost models (Roofline local step, ring
allreduce of the 4·p/m gradient shard, slowest-stage pipeline bound
with a configurable efficiency), enforce the per-accelerator memory
capacity, and return the fastest feasible plan (plus the explored
frontier for reporting).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..analysis.firstorder import FirstOrderModel
from ..hardware.accelerator import (
    USABLE_FRACTION,
    AcceleratorConfig,
    V100_LIKE,
)
from ..hardware.interconnect import ring_allreduce_time
from ..hardware.roofline import roofline_time

__all__ = ["ParallelPlan", "AutoPlanResult", "plan_auto"]

_SECONDS_PER_DAY = 86_400.0


@dataclass
class ParallelPlan:
    """One evaluated (subbatch, model-parallel, data-parallel) point."""

    subbatch: int
    model_parallel: int
    data_parallel: int
    step_time: float            # seconds, incl. pipeline + allreduce
    epoch_days: float
    memory_per_accel: float     # bytes
    flop_utilization: float     # achieved / (accels · peak)
    feasible: bool
    infeasible_reason: str = ""

    @property
    def accelerators(self) -> int:
        return self.model_parallel * self.data_parallel


@dataclass
class AutoPlanResult:
    """Outcome of the search: the chosen plan + the explored options."""

    best: Optional[ParallelPlan]
    explored: List[ParallelPlan]
    target_days: Optional[float] = None

    @property
    def met_target(self) -> bool:
        return (self.best is not None and self.target_days is not None
                and self.best.epoch_days <= self.target_days)


def plan_auto(
    model: FirstOrderModel,
    params: float,
    *,
    samples_per_epoch: float,
    units_per_sample: float,
    accel: AcceleratorConfig = V100_LIKE,
    max_accelerators: int = 4096,
    pipeline_stages: int = 4,
    max_model_parallel: int = 64,
    target_days: Optional[float] = None,
    subbatches: Sequence[int] = (32, 64, 128, 256),
    stage_efficiency: float = 0.4,
) -> AutoPlanResult:
    """Search parallel configurations for the fastest feasible plan.

    Model parallelism has two granularities, as in §6.2.2:

    * up to ``pipeline_stages`` ways split *layers* across accelerators
      and pipeline the unroll — compute speeds up by
      ``min(mp, stages) · stage_efficiency``;
    * ways beyond that shard weights *within* layers (the paper's
      embedding-sharding move) — they divide memory but add no
      compute speedup.

    ``stage_efficiency`` is the fraction of the ideal per-stage speedup
    actually realized (the case study observed ≈1.43/4 ≈ 0.36 due to
    stage imbalance); 1.0 models perfectly balanced stages.

    The best plan minimizes epoch time; among plans within 5% of the
    fastest (or all plans meeting ``target_days``), the one using the
    fewest accelerators wins — don't burn 4× hardware for 1% speed.
    """
    if model.delta is None:
        raise ValueError("footprint constants (delta/phi) are required")
    if not 0 < stage_efficiency <= 1.0:
        raise ValueError("stage_efficiency must be in (0, 1]")

    explored: List[ParallelPlan] = []
    mp_options = []
    m = 1
    while m <= min(max_accelerators, max_model_parallel):
        mp_options.append(m)
        m *= 2

    for b in subbatches:
        local = roofline_time(model.step_flops(params, b),
                              model.step_bytes(params, b), accel)
        footprint = model.footprint_bytes(params, b)
        for mp in mp_options:
            # memory: weight state shards across stages; activations
            # are dominated by the widest stage — charge the shard
            mem = footprint / mp
            feasible = mem <= USABLE_FRACTION * accel.memory_bytes
            reason = "" if feasible else "exceeds device memory"
            # pipelined compute: ideal speedup up to the layer count,
            # degraded by stage imbalance; memory-only shards beyond
            # the pipeline depth add no speedup (§6.2.2 sharding)
            pipe = min(mp, pipeline_stages)
            if pipe == 1:
                compute = local.step_time
            else:
                compute = local.step_time / (pipe * stage_efficiency)
            dp = 1
            dp_options = []
            while dp * mp <= max_accelerators:
                dp_options.append(dp)
                dp *= 2
            for dp in dp_options:
                accels = mp * dp
                comm = ring_allreduce_time(
                    4.0 * params / mp, dp, accel.interconnect_bandwidth
                )
                step = compute + comm
                steps = samples_per_epoch / (units_per_sample * b * dp)
                epoch_days = steps * step / _SECONDS_PER_DAY
                useful = model.step_flops(params, b) * dp
                plan = ParallelPlan(
                    subbatch=b,
                    model_parallel=mp,
                    data_parallel=dp,
                    step_time=step,
                    epoch_days=epoch_days,
                    memory_per_accel=mem,
                    flop_utilization=useful / (
                        accels * accel.peak_flops * step
                    ),
                    feasible=feasible,
                    infeasible_reason=reason,
                )
                explored.append(plan)

    feasible = [p for p in explored if p.feasible]
    best = None
    if feasible:
        fastest = min(feasible, key=lambda p: p.epoch_days)
        threshold = (target_days if target_days is not None
                     and any(p.epoch_days <= target_days
                             for p in feasible)
                     else fastest.epoch_days * 1.05)
        candidates = [p for p in feasible if p.epoch_days <= threshold]
        best = min(candidates,
                   key=lambda p: (p.accelerators, p.epoch_days))
    return AutoPlanResult(best=best, explored=explored,
                          target_days=target_days)
