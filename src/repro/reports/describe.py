"""Per-model analysis reports — the Catamount artifact's output format.

The paper's artifact emits one analysis file per compute graph
(``ppopp_2019_tests/output_*.txt``) containing the symbolic parameter /
FLOP / byte formulas and their values under a binding.  This module
produces the equivalent report for any zoo domain or custom
:class:`~repro.models.base.BuiltModel`, including the per-op-kind
breakdown, footprint estimate, and a Roofline projection.
"""

from __future__ import annotations

from typing import List, Optional

from ..analysis.counters import StepCounts
from ..analysis.footprint import estimate_footprint
from ..hardware.accelerator import V100_LIKE, AcceleratorConfig
from ..hardware.roofline import roofline_time
from ..models.base import BuiltModel
from ..models.registry import build_symbolic, get_domain
from ..runtime.profiler import profile_graph
from .common import si

__all__ = ["describe_model", "describe_domain"]


def describe_domain(key: str, *, size: Optional[float] = None,
                    subbatch: Optional[int] = None,
                    accel: AcceleratorConfig = V100_LIKE) -> str:
    """Describe one registry domain at a binding (defaults from registry)."""
    entry = get_domain(key)
    model = build_symbolic(key)
    if size is None:
        size = entry.sweep_sizes[len(entry.sweep_sizes) // 2]
    if subbatch is None:
        subbatch = entry.subbatch
    return describe_model(model, size=size, subbatch=subbatch,
                          accel=accel)


def describe_model(model: BuiltModel, *, size: Optional[float] = None,
                   subbatch: int = 32,
                   accel: AcceleratorConfig = V100_LIKE) -> str:
    """Render the full Catamount-style analysis of a built model."""
    counts = StepCounts(model)
    g = model.graph
    lines: List[str] = []
    title = f"Analysis of {g.name} ({model.domain})"
    lines.append(title)
    lines.append("=" * len(title))
    lines.append(f"ops: {len(g.ops)}   tensors: {len(g.tensors)}   "
                 f"weights: {len(g.parameters())}")
    lines.append("")

    lines.append("symbolic requirements (per training step)")
    lines.append(f"  parameters      : {counts.params}")
    per_sample = counts.flops_per_sample
    lines.append(f"  FLOPs/sample    : {_clip(str(per_sample))}")
    lines.append(f"  bytes (b-indep) : {_clip(str(counts.bytes_fixed))}")
    lines.append(f"  algorithmic IO  : {counts.io_bytes}")
    lines.append("")

    bindings = counts.bind(size, subbatch)
    size_note = f"size={size}, " if size is not None else ""
    lines.append(f"bound at {size_note}subbatch={subbatch}")
    params = counts.params.evalf(bindings)
    ct = counts.step_flops.evalf(bindings)
    at = counts.step_bytes.evalf(bindings)
    lines.append(f"  parameters      : {si(params)}")
    lines.append(f"  step FLOPs      : {si(ct)}FLOP")
    lines.append(f"  step bytes      : {si(at)}B")
    lines.append(f"  op intensity    : {ct / at:.2f} FLOP/B")

    footprint = estimate_footprint(model, bindings)
    lines.append(f"  min footprint   : {si(footprint.minimal_bytes)}B "
                 f"(weights+inputs {si(footprint.persistent_bytes)}B)")
    rt = roofline_time(ct, at, accel)
    bound = "memory" if rt.memory_bound else "compute"
    lines.append(f"  roofline step   : {rt.step_time:.4g} s on "
                 f"{accel.name} ({bound}-bound, "
                 f"util {rt.flop_utilization * 100:.0f}%)")
    lines.append("")

    lines.append("FLOPs by op kind")
    profile = profile_graph(g, bindings)
    total = profile.total_flops or 1.0
    for kind, agg in list(profile.by_kind().items())[:10]:
        share = agg.flops / total
        lines.append(
            f"  {kind:20s} {si(agg.flops):>10}FLOP  "
            f"{si(agg.bytes_accessed):>10}B  {share * 100:5.1f}%"
        )
    return "\n".join(lines)


def _clip(text: str, limit: int = 200) -> str:
    if len(text) <= limit:
        return text
    return text[: limit - 12] + f" ... [+{len(text) - limit} chars]"
