"""Layer-wise model parallelism and embedding sharding (paper §6.2.2).

The word LM decomposes into four stages — embedding, the recurrent
layers, and the output/softmax layer — placed on neighboring
accelerators.  Because the recurrent unroll streams time steps through
the stages, throughput is bounded by the *slowest stage* plus the
inter-stage activation transfers; the other accelerators idle part of
each step, which is exactly the utilization sacrifice Table 5 records
(38% → 14.5%).

Stages are recovered from the built graph by op-name prefix (model
builders use stable ``embed``/``lstm<i>``/``logits`` naming), so the
same machinery works for any model with layered names.

Embedding sharding: the embedding's weight memory (59.5 GB at frontier
scale) exceeds one accelerator; splitting the table and co-locating the
pieces with under-utilized recurrent-stage memories evens out
per-accelerator footprints at trivial run-time cost (§6.2.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence

from ..graph import Graph
from ..hardware.accelerator import AcceleratorConfig
from ..hardware.interconnect import point_to_point_time
from ..hardware.roofline import roofline_time

__all__ = [
    "StageCosts",
    "LayerParallelPlan",
    "split_stages",
    "plan_layer_parallel",
    "shard_embedding",
]


@dataclass
class StageCosts:
    """Aggregate algorithmic costs of one pipeline stage."""

    name: str
    flops: float
    bytes_accessed: float
    param_bytes: float
    #: bytes of activations produced by this stage's ops (share proxy)
    activation_bytes: float

    @property
    def weight_state_bytes(self) -> float:
        """Weights + gradients resident on the stage's accelerator."""
        return 2.0 * self.param_bytes


def split_stages(
    graph: Graph,
    stage_prefixes: Mapping[str, Sequence[str]],
    bindings: Optional[Mapping] = None,
) -> List[StageCosts]:
    """Partition a graph's costs into named stages by op-name prefix.

    ``stage_prefixes`` maps stage name → list of name prefixes (checked
    after stripping ``grad/`` / ``sgd/``).  Unmatched ops fall into the
    last stage.
    """
    order = list(stage_prefixes)
    costs = {
        s: StageCosts(s, 0.0, 0.0, 0.0, 0.0) for s in order
    }

    def stage_of(name: str) -> str:
        clean = name
        for prefix in ("grad/", "sgd/"):
            if clean.startswith(prefix):
                clean = clean[len(prefix):]
        for stage, prefixes in stage_prefixes.items():
            if any(clean.startswith(p) for p in prefixes):
                return stage
        return order[-1]

    # one evaluation per op class, accumulated per op in op order
    per_op = graph.per_op(lambda op: (
        op.flops().evalf(bindings),
        op.bytes_accessed().evalf(bindings),
        [out.size_bytes().evalf(bindings)
         for out in op.outputs if not out.is_persistent],
    ))
    for op, (flops, byts, activations) in zip(graph.ops, per_op):
        stage = costs[stage_of(op.name)]
        stage.flops += flops
        stage.bytes_accessed += byts
        for size in activations:
            stage.activation_bytes += size

    for t in graph.tensors.values():
        if t.is_param:
            costs[stage_of(t.name)].param_bytes += \
                t.size_bytes().evalf(bindings)

    return [costs[s] for s in order]


@dataclass
class LayerParallelPlan:
    """Outcome of placing stages on separate accelerators."""

    stages: List[StageCosts]
    #: per-stage compute time under the Roofline, seconds
    stage_times: List[float]
    #: per-step inter-stage activation transfer time, seconds
    transfer_time: float
    #: pipelined step time: bound by the slowest stage (+ transfers)
    step_time: float
    #: speedup over running all stages on one accelerator
    speedup: float
    #: per-accelerator memory footprint, bytes (weights+grads+acts)
    stage_memory_bytes: List[float]

    @property
    def accelerators(self) -> int:
        return len(self.stages)


def plan_layer_parallel(
    stages: Sequence[StageCosts],
    accel: AcceleratorConfig,
    *,
    boundary_activation_bytes: float,
    boundary_transfers: int,
    total_footprint_bytes: Optional[float] = None,
    time_inflation: float = 1.0,
) -> LayerParallelPlan:
    """Model layer-wise parallelism over the given stages.

    ``boundary_activation_bytes`` is the per-transfer activation
    payload (e.g. ``4·b·h``); ``boundary_transfers`` the number of
    transfers per training step (forward + backward crossings × unroll
    length).  ``time_inflation`` scales per-stage Roofline times up to
    a calibrated level (e.g. the cache-aware single-device step time).
    """
    stage_times = [
        time_inflation
        * roofline_time(s.flops, s.bytes_accessed, accel).step_time
        for s in stages
    ]
    total_time = sum(stage_times)
    transfer = boundary_transfers * point_to_point_time(
        boundary_activation_bytes, accel.interconnect_bandwidth
    )
    step_time = max(stage_times) + transfer
    speedup = total_time / step_time if step_time > 0 else 1.0

    total_acts = sum(s.activation_bytes for s in stages)
    if total_footprint_bytes is not None:
        weight_state = sum(s.weight_state_bytes for s in stages)
        live_acts = max(total_footprint_bytes - weight_state, 0.0)
    else:
        live_acts = total_acts
    memories = []
    for s in stages:
        share = s.activation_bytes / total_acts if total_acts else 0.0
        memories.append(s.weight_state_bytes + share * live_acts)

    return LayerParallelPlan(
        stages=list(stages),
        stage_times=stage_times,
        transfer_time=transfer,
        step_time=step_time,
        speedup=speedup,
        stage_memory_bytes=memories,
    )


def shard_embedding(
    plan: LayerParallelPlan,
    *,
    embedding_stage: int = 0,
) -> List[float]:
    """Re-balance stage memories by splitting the embedding's weights.

    The embedding's weight state is a freely-divisible pool (lookups
    are row-local, so pieces can live anywhere at trivial run-time
    cost, §6.2.2).  Water-fill it across accelerators to minimize the
    maximum per-accelerator footprint — Table 5's
    {60,17,17,32} → {32,31,31,32} step.
    """
    memories = list(plan.stage_memory_bytes)
    movable = plan.stages[embedding_stage].weight_state_bytes
    if movable <= 0:
        return memories

    base = list(memories)
    base[embedding_stage] -= movable

    # water-filling: raise the lowest levels until the pool is spent
    order = sorted(range(len(base)), key=lambda i: base[i])
    remaining = movable
    levels = [base[i] for i in order]
    filled = list(levels)
    for idx in range(len(order)):
        if remaining <= 0:
            break
        up_to = levels[idx + 1] if idx + 1 < len(order) else float("inf")
        width = idx + 1
        lift = min(up_to - filled[idx], remaining / width)
        for j in range(width):
            filled[j] += lift
        remaining -= lift * width
    if remaining > 0:
        per = remaining / len(filled)
        filled = [f + per for f in filled]

    out = [0.0] * len(base)
    for pos, i in enumerate(order):
        out[i] = filled[pos]
    return out
