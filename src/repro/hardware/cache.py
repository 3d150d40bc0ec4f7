"""Cache-hierarchy-aware memory-traffic model (paper §6.1).

Algorithmic bytes *under*-estimate real traffic for large matrix
multiplies: once operands exceed the on-chip cache, a tiled
implementation must re-stream input panels from off-chip memory.
Following the paper (which cites Coleman & McKinley tile-size
selection), we model a standard tiled matmul with square t×t tiles,
three tiles resident (A-tile, B-tile, C-tile):

    t = sqrt(cache / (3 · dtype))

The A panel streams once per column-tile of C and the B panel once per
row-tile, so off-chip traffic is

    traffic = dtype · (M·K·⌈N/t⌉ + K·N·⌈M/t⌉ + M·N)

which reduces exactly to the algorithmic count for cache-resident
multiplies and grows for large ones.  Applying this per-op (with a
per-op Roofline) reproduces the paper's utilization erosion for the
word-LM case study (Table 5 row 2) and explains why the paper argues
*larger caches* would directly reduce RNN input re-streaming.
"""

from __future__ import annotations

import math
from typing import Union

from ..graph import Graph
from ..ops import BatchMatMulOp, Conv2DFilterGradOp, Conv2DInputGradOp
from ..ops import Conv2DOp, MatMulOp
from ..symbolic import Add, Const, Expr, Mul, as_expr

__all__ = [
    "tile_size",
    "tiled_matmul_bytes",
    "cache_aware_total_bytes",
]


def tile_size(cache_bytes: float, *, dtype_bytes: int = 4,
              resident_tiles: int = 3) -> int:
    """Square tile edge t with ``resident_tiles`` t×t tiles in cache."""
    if cache_bytes <= 0:
        raise ValueError("cache size must be positive")
    return max(1, int(math.sqrt(cache_bytes / (resident_tiles * dtype_bytes))))


def tiled_matmul_bytes(m, k, n, cache_bytes: float, *,
                       dtype_bytes: int = 4) -> Expr:
    """Off-chip traffic of a tiled (M×K)(K×N) matmul, in bytes.

    A square-tiled implementation streams the A panel once per
    column-tile of C and the B panel once per row-tile of C, and writes
    C once:

        traffic = dtype · (M·K·⌈N/t⌉ + K·N·⌈M/t⌉ + M·N)

    Matrices that fit in cache have ⌈·⌉ = 1 and recover exactly the
    algorithmic byte count; large multiplies re-stream their inputs —
    the §6.1 effect that erodes RNN utilization and motivates larger
    on-chip caches.
    """
    from ..symbolic import Ceil

    m, k, n = as_expr(m), as_expr(k), as_expr(n)
    t = tile_size(cache_bytes, dtype_bytes=dtype_bytes)
    tiled = Mul.of(Const(dtype_bytes), Add.of(
        Mul.of(m, k, Ceil.of(n / t)),
        Mul.of(k, n, Ceil.of(m / t)),
        m * n,
    ))
    return tiled


def _matmul_like_dims(op) -> Union[tuple, None]:
    """(m, k, n, count) for ops that lower to matmul, else None."""
    if isinstance(op, MatMulOp):
        m, k, n = op._dims()
        return m, k, n, Const(1)
    if isinstance(op, BatchMatMulOp):
        g, m, k, n = op._dims()
        return m, k, n, g
    if isinstance(op, Conv2DOp):
        x, w = op.inputs
        out = op.outputs[0]
        m = Mul.of(out.shape[0], out.shape[1], out.shape[2])
        k = Mul.of(Const(op.kernel[0] * op.kernel[1]), x.shape[3])
        return m, k, w.shape[3], Const(1)
    if isinstance(op, (Conv2DInputGradOp, Conv2DFilterGradOp)):
        dy = op.inputs[0] if isinstance(op, Conv2DInputGradOp) \
            else op.inputs[1]
        out = op.outputs[0]
        m = Mul.of(dy.shape[0], dy.shape[1], dy.shape[2])
        k = Mul.of(Const(op.kernel[0] * op.kernel[1]),
                   out.shape[3] if isinstance(op, Conv2DInputGradOp)
                   else op.inputs[0].shape[3])
        n = dy.shape[3]
        return m, k, n, Const(1)
    return None


def cache_aware_total_bytes(graph: Graph, cache_bytes: float) -> Expr:
    """Training-step bytes with matmul re-streaming under a finite cache.

    Non-matmul ops keep their algorithmic bytes; matmul-like ops use
    the tiled-streaming traffic model.  Built once per op class.
    """
    return graph.class_sum(
        lambda op: cache_aware_op_bytes(op, cache_bytes))


def cache_aware_op_bytes(op, cache_bytes: float) -> Expr:
    """One op's off-chip traffic under the finite-cache model."""
    dims = _matmul_like_dims(op)
    if dims is None:
        return op.bytes_accessed()
    m, k, n, count = dims
    dtype = op.outputs[0].dtype_bytes
    return Mul.of(count, tiled_matmul_bytes(
        m, k, n, cache_bytes, dtype_bytes=dtype
    ))


def cache_aware_step_time(graph: Graph, accel, bindings=None) -> dict:
    """Per-op Roofline step time under the finite-cache traffic model.

    The graph-level Roofline lets compute-bound ops hide memory-bound
    ops entirely; summing each op's own Roofline bound instead captures
    the §5.2.1 observation that "many ops are still memory-bound" even
    when the aggregate intensity clears the ridge point.  Returns a
    dict with ``step_time``, total ``flops``/``bytes``, and the derived
    ``flop_utilization``.

    Each op class is evaluated once; the sums still run per op, in op
    order, so the floats match a per-op evaluation exactly.
    """
    per_op = graph.per_op(lambda op: (
        op.flops().evalf(bindings),
        cache_aware_op_bytes(op, accel.cache_bytes).evalf(bindings),
    ))
    total_time = 0.0
    total_flops = 0.0
    total_bytes = 0.0
    for flops, byts in per_op:
        total_time += max(flops / accel.achievable_flops,
                          byts / accel.achievable_bandwidth)
        total_flops += flops
        total_bytes += byts
    return {
        "step_time": total_time,
        "flops": total_flops,
        "bytes": total_bytes,
        "flop_utilization": (total_flops / total_time / accel.peak_flops
                             if total_time else 0.0),
    }
