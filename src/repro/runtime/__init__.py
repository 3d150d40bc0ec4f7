"""Runtime: numpy execution, per-op profiling, allocator simulation.

The paper measured real TensorFlow training steps (TFprof + the GPU
allocator); this package provides the offline equivalents — execute the
same graphs with numpy, collect per-op algorithmic profiles, and replay
schedules through a BFC-style allocator model.  The profiler's live
bytes and the allocator's allocations and frees follow the liveness
rule of the graph's traversal skeleton (:mod:`repro.graph.traversal`).
"""

from .allocator import AllocationReport, simulate_allocator
from .executor import ExecutionResult, bind_shape, execute_graph, make_feeds
from .profiler import OpProfile, StepProfile, profile_execution, profile_graph

__all__ = [
    "execute_graph",
    "make_feeds",
    "bind_shape",
    "ExecutionResult",
    "profile_graph",
    "profile_execution",
    "OpProfile",
    "StepProfile",
    "simulate_allocator",
    "AllocationReport",
]
