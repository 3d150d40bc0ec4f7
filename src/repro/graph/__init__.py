"""Compute-graph IR: tensors, ops, graphs, traversal, and autodiff.

This is the substrate the paper's artifact (Catamount) provides: a
graph representation whose dimensions stay symbolic, over which
algorithmic FLOPs, memory accesses, and memory footprint are computed.
The liveness rule behind the footprint is stated once, in
:mod:`.traversal`'s per-graph skeleton; every schedule replay (the
footprint, its in-place variant, the allocator model and the measured
profile) reads it from there.
"""

from .autodiff import attach_sgd_update, build_training_step, differentiate
from .fusion import fused_op_bytes, fused_total_bytes, fusion_groups
from .graph import Graph
from .inplace import inplace_aliases
from .serialize import (
    load_graph,
    load_graph_file,
    save_graph,
    save_graph_file,
)
from .op import Op
from .tensor import Tensor, TensorKind, shape_elements
from .traversal import (
    evaluate_sizes,
    liveness_peak,
    liveness_trace,
    memory_greedy_order,
    topological_order,
)
from .validate import GraphValidationError, validate_graph

__all__ = [
    "Graph",
    "Op",
    "Tensor",
    "TensorKind",
    "shape_elements",
    "topological_order",
    "memory_greedy_order",
    "liveness_peak",
    "liveness_trace",
    "inplace_aliases",
    "fusion_groups",
    "fused_total_bytes",
    "fused_op_bytes",
    "save_graph",
    "load_graph",
    "save_graph_file",
    "load_graph_file",
    "evaluate_sizes",
    "differentiate",
    "attach_sgd_update",
    "build_training_step",
    "validate_graph",
    "GraphValidationError",
]
