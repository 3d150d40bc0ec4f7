"""Per-op profiler — the repo's substitute for TFprof (§4.1).

The paper instruments TensorFlow ops to collect algorithmic FLOPs,
bytes, and run time per training step.  Here the same per-op numbers
come from each op's algorithmic cost formulas bound to concrete
dimensions, optionally joined with measured numpy kernel times from an
actual execution.  Profiles aggregate by op kind so the breakdowns the
paper discusses (recurrent matmuls vs embedding vs output layer) fall
out directly.

Timing uses the :mod:`repro.obs` monotonic span clock, and when
tracing is enabled each executed op also emits an obs span carrying
its algorithmic FLOPs/bytes — the paper's TFprof join (measured wall
time and algorithmic counts on the same record) lands directly in the
Chrome trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

import numpy as np

from ..graph import Graph, topological_order
from ..graph.traversal import skeleton
from ..obs.tracer import TRACER as _TRACER, monotonic_ns
from .executor import bind_shape, make_feeds

__all__ = ["OpProfile", "StepProfile", "profile_graph", "profile_execution"]


@dataclass
class OpProfile:
    """Algorithmic profile of a single op instance."""

    name: str
    kind: str
    flops: float
    bytes_accessed: float
    wall_time: float = 0.0
    #: high-water mark of modeled live bytes while this op ran (its
    #: outputs allocated, its dead inputs not yet freed); 0 when the
    #: profile was built without execution
    peak_live_bytes: float = 0.0


@dataclass
class StepProfile:
    """Profile of one full training-step traversal."""

    graph_name: str
    ops: List[OpProfile] = field(default_factory=list)

    @property
    def total_flops(self) -> float:
        return sum(op.flops for op in self.ops)

    @property
    def total_bytes(self) -> float:
        return sum(op.bytes_accessed for op in self.ops)

    @property
    def operational_intensity(self) -> float:
        if self.total_bytes == 0:
            return 0.0
        return self.total_flops / self.total_bytes

    @property
    def peak_live_bytes(self) -> float:
        """Step-level peak of the per-op live-byte high-water marks."""
        return max((op.peak_live_bytes for op in self.ops), default=0.0)

    def by_kind(self) -> Dict[str, OpProfile]:
        """Aggregate profile per op kind, sorted by FLOPs descending."""
        agg: Dict[str, OpProfile] = {}
        for op in self.ops:
            if op.kind not in agg:
                agg[op.kind] = OpProfile(op.kind, op.kind, 0.0, 0.0, 0.0)
            bucket = agg[op.kind]
            bucket.flops += op.flops
            bucket.bytes_accessed += op.bytes_accessed
            bucket.wall_time += op.wall_time
            bucket.peak_live_bytes = max(bucket.peak_live_bytes,
                                         op.peak_live_bytes)
        return dict(
            sorted(agg.items(), key=lambda kv: -kv[1].flops)
        )

    def top_ops(self, n: int = 10) -> List[OpProfile]:
        return sorted(self.ops, key=lambda op: -op.flops)[:n]


def profile_graph(graph: Graph,
                  bindings: Optional[Mapping] = None) -> StepProfile:
    """Algorithmic per-op profile (no execution) under bindings."""
    profile = StepProfile(graph.name)
    per_op = graph.per_op(lambda op: (op.flops().evalf(bindings),
                                      op.bytes_accessed().evalf(bindings)))
    for op, (flops, byts) in zip(graph.ops, per_op):
        profile.ops.append(OpProfile(
            name=op.name,
            kind=op.kind,
            flops=flops,
            bytes_accessed=byts,
        ))
    return profile


def profile_execution(graph: Graph,
                      bindings: Optional[Mapping] = None, *,
                      seed: int = 0) -> StepProfile:
    """Execute the graph, recording wall time per op alongside counts.

    Mirrors the paper's methodology of profiling real training steps;
    the numpy kernel times are only indicative, but the FLOP/byte
    columns are exact algorithmic counts.  Each op also records the
    peak live bytes while it ran: outputs count from the moment they
    are produced, non-persistent intermediates die after their last
    consumer, and weights/inputs are charged for the whole step — the
    liveness rule of the graph's traversal skeleton, which
    :func:`repro.graph.liveness_peak` replays over modeled sizes.
    Here the bytes are the arrays' measured ``nbytes``.
    """
    rng = np.random.default_rng(seed + 1)
    values: Dict[str, np.ndarray] = {}
    feeds = make_feeds(graph, bindings, seed=seed)
    for t in graph.inputs():
        values[t.name] = feeds[t.name]
    for t in graph.parameters():
        shape = bind_shape(t, bindings)
        fan_in = shape[0] if shape else 1
        values[t.name] = (
            rng.standard_normal(shape) / np.sqrt(max(fan_in, 1))
        ).astype(np.float32)

    # actual-array liveness tracking (nbytes, not size formulas)
    sk = skeleton(graph)
    remaining = list(sk.consumer_counts)
    live = sum(v.nbytes for v in values.values())

    profile = StepProfile(graph.name)
    with _TRACER.span("runtime.profile_execution", "runtime",
                      graph=graph.name, n_ops=len(graph.ops)):
        for op in topological_order(graph):
            inputs = [values[t.name] for t in op.inputs]
            out_shapes = [bind_shape(t, bindings) for t in op.outputs]
            span = _TRACER.span(op.name, "op", kind=op.kind,
                                graph=graph.name)
            with span:
                start_ns = monotonic_ns()
                outputs = op.execute(inputs, out_shapes)
                elapsed = (monotonic_ns() - start_ns) / 1e9
            for t, array in zip(op.outputs, outputs):
                values[t.name] = array
            i = sk.op_index[op]
            for t in sk.out_live[i]:
                live += values[sk.tensors[t].name].nbytes
            op_peak = float(live)
            for t, c in sk.live_uses[i]:
                remaining[t] -= c
                if remaining[t] == 0:
                    live -= values[sk.tensors[t].name].nbytes
            flops = op.flops().evalf(bindings)
            bytes_accessed = op.bytes_accessed().evalf(bindings)
            # the TFprof join: algorithmic counts on the measured span
            span.set(flops=flops, bytes=bytes_accessed,
                     peak_live_bytes=op_peak)
            profile.ops.append(OpProfile(
                name=op.name,
                kind=op.kind,
                flops=flops,
                bytes_accessed=bytes_accessed,
                wall_time=elapsed,
                peak_live_bytes=op_peak,
            ))
    return profile
