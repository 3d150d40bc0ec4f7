"""BFC-style allocator simulator (the TF memory-allocator substitute).

Figure 10 of the paper compares TensorFlow's allocator-reported memory
footprint with topological-traversal estimates, observing that the
allocator (a) slightly exceeds the algorithmic minimum (alignment,
binning), and (b) *flattens* once the model no longer fits in GPU
memory, because TF silently swaps tensors to host RAM and stops
counting them ("80% of 12GB").

This simulator replays a training-step schedule against a best-fit-
with-coalescing-inspired allocator: sizes round up to 256-byte-aligned
bins, a device capacity can be imposed, and when an allocation would
exceed its usable fraction the least-recently-used live tensors are
swapped out (their bytes counted separately).  The reported footprint
is the device-resident high-water mark — exactly the quantity that
flattens in the paper's figure.  Which tensors are pinned, allocated
and freed when is the liveness rule, read from the graph's traversal
skeleton (:func:`repro.graph.traversal.skeleton`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence

from ..graph import Graph, Op, Tensor
from ..graph.traversal import skeleton
from ..hardware.accelerator import USABLE_FRACTION

__all__ = ["AllocationReport", "simulate_allocator"]

#: bytes of allocation alignment (BFC: 256)
_ALIGNMENT = 256


@dataclass
class AllocationReport:
    """Outcome of an allocator replay."""

    #: device-resident high-water mark (what TF's allocator reports)
    peak_resident_bytes: int = 0
    #: true high-water including swapped-out tensors
    peak_total_bytes: int = 0
    #: bytes moved device→host by swapping
    swapped_out_bytes: int = 0
    #: number of swap events
    swap_events: int = 0
    #: allocation overhead vs exact sizes (alignment/binning), bytes
    rounding_overhead_bytes: int = 0

    @property
    def did_swap(self) -> bool:
        return self.swap_events > 0


def _rounded(size: int) -> int:
    if size <= 0:
        return _ALIGNMENT
    return ((size + _ALIGNMENT - 1) // _ALIGNMENT) * _ALIGNMENT


def simulate_allocator(
    graph: Graph,
    order: Sequence[Op],
    sizes: Mapping[Tensor, int],
    *,
    capacity_bytes: Optional[int] = None,
) -> AllocationReport:
    """Replay a schedule through the allocator model.

    Persistent tensors (parameters) and graph inputs are allocated up
    front and never swap (frameworks pin weights); activations are
    allocated when produced, freed after their last consumer, and are
    swap candidates in LRU order once the resident bytes would exceed
    ``USABLE_FRACTION`` of ``capacity_bytes`` (``None``: unbounded).
    """
    sk = skeleton(graph)
    exact = [sizes[t] for t in sk.tensors]
    rounded = [_rounded(s) for s in exact]
    limit = (None if capacity_bytes is None
             else int(capacity_bytes * USABLE_FRACTION))
    report = AllocationReport()

    # activations by tensor index; dict order is LRU order, oldest first
    resident: Dict[int, int] = {}
    swapped: Dict[int, int] = {}
    resident_bytes = sum(rounded[t] for t in sk.persistent_idx)
    swapped_bytes = 0
    overhead = resident_bytes - sum(exact[t] for t in sk.persistent_idx)
    peak_resident = peak_total = resident_bytes

    def make_room(needed: int) -> None:
        nonlocal resident_bytes, swapped_bytes
        if limit is None:
            return
        while resident_bytes + needed > limit and resident:
            victim = next(iter(resident))
            size = resident.pop(victim)
            resident_bytes -= size
            swapped[victim] = size
            swapped_bytes += size
            report.swapped_out_bytes += size
            report.swap_events += 1

    touches = sk.touch_order()
    remaining = list(sk.consumer_counts)
    for op in order:
        i = sk.op_index[op]
        for t in sk.out_live[i]:
            size = rounded[t]
            overhead += size - exact[t]
            make_room(size)
            resident[t] = size
            resident_bytes += size
        # touched inputs become most recently used; swapped ones page
        # back in (we track only the footprint consequence)
        for t in touches[i]:
            if t in swapped:
                size = swapped.pop(t)
                swapped_bytes -= size
                make_room(size)
                resident[t] = size
                resident_bytes += size
            else:
                resident[t] = resident.pop(t)
        peak_resident = max(peak_resident, resident_bytes)
        peak_total = max(peak_total, resident_bytes + swapped_bytes)
        for t, c in sk.live_uses[i]:
            remaining[t] -= c
            if remaining[t] == 0:
                if t in resident:
                    resident_bytes -= resident.pop(t)
                if t in swapped:
                    swapped_bytes -= swapped.pop(t)

    report.peak_resident_bytes = peak_resident
    report.peak_total_bytes = peak_total
    report.rounding_overhead_bytes = overhead
    return report
