"""Graph traversal: topological orders, liveness, and schedules.

The paper's *algorithmic memory footprint* is the minimum over all
correct topological traversals of the peak live-tensor memory (§2.1).
Finding the true minimum is NP-hard (it generalizes register
sufficiency), so — like Catamount — we compute it with schedules that
are cheap and close to optimal in practice:

* :func:`topological_order` — program order, which
  :meth:`~repro.graph.Graph.add_op` keeps topological, modeling a
  framework that executes ops as issued;
* :func:`memory_greedy_order` — at every step run the ready op that
  minimizes the resulting live set, a strong footprint heuristic.

:func:`liveness_trace` replays any schedule and returns the live bytes
as each op runs; :func:`liveness_peak` is its high-water mark.
Persistent tensors (weights) are charged once.

This module is the one home of the liveness rule — weights and graph
inputs are pinned for the whole step, a tensor is born when its
producer runs and dies after its last consumer.  :func:`skeleton`
resolves it to tensor indices once per graph, and everything that
prices or replays a schedule reads it from there:
:func:`memory_greedy_order`, :func:`liveness_trace` and
:func:`liveness_bounds` (with in-place aliases too), the allocator
model in :mod:`repro.runtime.allocator` and the measured replay in
:mod:`repro.runtime.profiler`.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..obs.metrics import counter as _obs_counter
from ..obs.tracer import TRACER as _TRACER
from ..symbolic.compile import CompiledExpr, compile_batch
from .graph import Graph
from .op import Op
from .tensor import Tensor

__all__ = [
    "topological_order",
    "memory_greedy_order",
    "liveness_peak",
    "liveness_trace",
    "liveness_bounds",
    "skeleton",
    "evaluate_sizes",
    "evaluate_sizes_many",
    "size_program",
]


class GraphSkeleton:
    """Int-indexed traversal structure of one graph (memoized on it).

    The schedulers and the liveness replays are called once per sweep
    point, but everything they need besides the concrete sizes —
    producer counts, consumer edges, per-op input use counts — depends
    only on the graph's wiring.  Resolving tensors and ops to dense
    integer indices once takes the per-point cost down to plain list
    arithmetic; every function below produces *identical* results to
    its mapping-based reference oracle in the tests.

    The liveness rule is held by ``persistent_idx`` (pinned for the
    step), ``out_live`` (born when the op runs) and ``consumer_counts``
    counted down by ``live_uses`` (dead at zero); the greedy scheduler
    prices ops by it and every replay scores by it.  Two methods add
    tables only some callers read, built on first use:
    :meth:`touch_order` (the read order, for replays that track
    recency) and :meth:`greedy_tables` (the memory-greedy scheduler's).
    """

    __slots__ = (
        "name", "ops", "tensors", "op_index",
        "consumer_counts", "out_live", "live_uses",
        "persistent_idx", "touches", "greedy",
    )

    def __init__(self, graph: Graph):
        ops = tuple(graph.ops)
        tensors = tuple(graph.tensors.values())
        self.name = graph.name
        self.ops = ops
        self.tensors = tensors
        tensor_index = {t: i for i, t in enumerate(tensors)}
        self.op_index = {op: i for i, op in enumerate(ops)}

        self.consumer_counts = [len(t.consumers) for t in tensors]
        self.out_live = [
            tuple(tensor_index[t] for t in op.outputs
                  if not (t.is_persistent or t.producer is None))
            for op in ops
        ]
        self.live_uses = []
        for op in ops:
            seen: Dict[int, int] = {}
            for t in op.inputs:
                if t.is_persistent or t.producer is None:
                    continue
                ti = tensor_index[t]
                if ti not in seen:
                    seen[ti] = sum(1 for c in t.consumers if c is op)
            self.live_uses.append(tuple(seen.items()))
        self.persistent_idx = tuple(
            i for i, t in enumerate(tensors)
            if t.is_persistent or t.producer is None
        )
        self.touches: Optional[List[Tuple[int, ...]]] = None
        self.greedy: Optional[Tuple] = None

    def touch_order(self) -> List[Tuple[int, ...]]:
        """Each op's live input reads in ``op.inputs`` order, repeats
        kept.  Only the allocator replay reads it, so it is built on
        first use rather than for every graph."""
        if self.touches is None:
            index = {t: i for i, t in enumerate(self.tensors)}
            self.touches = [
                tuple(index[t] for t in op.inputs
                      if not (t.is_persistent or t.producer is None))
                for op in self.ops
            ]
        return self.touches

    def greedy_tables(self) -> Tuple:
        """``(pending0, edge_consumers, holders)`` for
        :func:`memory_greedy_order`: each op's count of produced inputs,
        its consumer edges (one per input read, as ``pending0`` counts
        them), and each live tensor's ``(op, uses)`` holders, read from
        ``live_uses`` so the greedy prices an op by the liveness rule
        that scores it.  Program-order footprints and
        liveness replays never read them, so they are built on first
        use rather than for every graph."""
        if self.greedy is None:
            op_index = self.op_index
            pending0 = [
                sum(1 for t in op.inputs if t.producer is not None)
                for op in self.ops
            ]
            edge_consumers = [
                tuple(op_index[c] for out in op.outputs
                      for c in out.consumers)
                for op in self.ops
            ]
            holders: Dict[int, List[Tuple[int, int]]] = {}
            for i, uses in enumerate(self.live_uses):
                for ti, c in uses:
                    holders.setdefault(ti, []).append((i, c))
            self.greedy = (
                pending0, edge_consumers,
                {ti: tuple(v) for ti, v in holders.items()},
            )
        return self.greedy


_SKEL_HIT = _obs_counter("graph.skeleton.cache.hit")
_SKEL_MISS = _obs_counter("graph.skeleton.cache.miss")


def skeleton(graph: Graph) -> GraphSkeleton:
    """The graph's traversal skeleton (kept on it once finalized)."""
    return graph.memo("skeleton", lambda: GraphSkeleton(graph),
                      hit=_SKEL_HIT, miss=_SKEL_MISS)


def _size_array(sk: GraphSkeleton, sizes: Mapping[Tensor, int]) -> List[int]:
    """Sizes resolved to the skeleton's tensor indexing (one dict pass)."""
    return [sizes[t] for t in sk.tensors]


def topological_order(graph: Graph) -> List[Op]:
    """The graph's ops in program order.

    :meth:`~repro.graph.Graph.add_op` refuses an op that would break
    dependency order, so program order is topological by construction.
    """
    return list(graph.ops)


# Size-program cache effectiveness (a miss batch-compiles every tensor
# size expression of the graph) and greedy-scheduler heap traffic.
_SIZE_HIT = _obs_counter("graph.size_program.cache.hit")
_SIZE_MISS = _obs_counter("graph.size_program.cache.miss")
_HEAP_PUSHES = _obs_counter("graph.greedy.heap_pushes")
_HEAP_POPS = _obs_counter("graph.greedy.heap_pops")
_HEAP_STALE = _obs_counter("graph.greedy.stale_skips")
_SCHEDULES = _obs_counter("graph.greedy.schedules")


def size_program(graph: Graph) -> Tuple[Tuple[Tensor, ...], CompiledExpr]:
    """Batch-compile every tensor's byte-size expression.

    The tensor-size expressions of an unrolled graph share most of
    their subtrees (the same ``h``/``b`` products appear in thousands
    of shapes); compiling them into one CSE'd tape means each shared
    subterm is evaluated once per binding instead of once per tensor.
    """
    return graph.memo("size_program", lambda: _compile_sizes(graph),
                      hit=_SIZE_HIT, miss=_SIZE_MISS)


def _compile_sizes(graph: Graph) -> Tuple[Tuple[Tensor, ...],
                                          CompiledExpr]:
    with _TRACER.span("graph.size_program.compile", "compile",
                      graph=graph.name, n_tensors=len(graph.tensors)):
        tensors = tuple(graph.tensors.values())
        return tensors, compile_batch([t.size_bytes() for t in tensors])


def evaluate_sizes(graph: Graph,
                   bindings: Optional[Mapping] = None) -> Dict[Tensor, int]:
    """Concrete byte size per tensor under the given symbol bindings.

    Evaluates the cached batch-compiled size program — one tape replay
    for the whole graph, identical floats to the per-tensor tree walk.
    """
    tensors, program = size_program(graph)
    values = program(bindings)
    return {t: int(round(v)) for t, v in zip(tensors, values)}


def evaluate_sizes_many(graph: Graph, rows) -> "list[Dict[Tensor, int]]":
    """Sizes for many bindings at once (vectorized tape replay).

    ``rows`` is a sequence of bindings mappings or a column mapping
    (see :meth:`repro.symbolic.CompiledExpr.bind_matrix`); returns one
    size dict per row.
    """
    tensors, program = size_program(graph)
    matrix = program.eval_many(rows)
    out = []
    for r in range(matrix.shape[0]):
        row = matrix[r]
        out.append({t: int(round(row[j])) for j, t in enumerate(tensors)})
    return out


def memory_greedy_order(graph: Graph,
                        sizes: Mapping[Tensor, int]) -> List[Op]:
    """Schedule that greedily minimizes live memory growth per step.

    At each step, among ready ops pick the one whose execution changes
    live bytes the least (bytes allocated for outputs minus bytes of
    inputs that die).  Ties break on program order for determinism.
    Ops are priced by the rule :func:`liveness_trace` scores them by:
    weights and graph inputs are pinned, so they never die.

    Deltas are maintained *incrementally*: an op's growth (output
    bytes) is fixed, and its shrink (input bytes it frees) only ever
    increases — a tensor is credited to a consumer exactly when that
    consumer becomes the sole holder of its remaining uses.  A lazy
    min-heap over ``(delta, program index)`` then replaces the
    O(ready · degree) rescan per step, taking the schedule from
    O(V·ready·degree) to O((V + E) log V) while producing the *same*
    order as the seed's reference scan (a test oracle).
    """
    sk = skeleton(graph)
    size_arr = _size_array(sk, sizes)
    n = len(sk.ops)
    pending0, edge_consumers, holders = sk.greedy_tables()
    uses = sk.live_uses

    remaining = list(sk.consumer_counts)
    grow = []
    for outs in sk.out_live:
        local = 0
        for t in outs:
            local += size_arr[t]
        grow.append(local)
    shrink = [0] * n
    for t, ops_counts in holders.items():
        rem = remaining[t]
        for i, c in ops_counts:
            if c == rem:
                shrink[i] += size_arr[t]

    pending = list(pending0)
    is_ready = [False] * n
    executed = [False] * n
    # heap traffic is counted in locals (one add per heap op) and
    # flushed to the metrics registry once per schedule
    pushes = pops = stale = 0
    heap: List[Tuple[int, int]] = []
    for i in range(n):
        if pending[i] == 0:
            is_ready[i] = True
            heapq.heappush(heap, (grow[i] - shrink[i], i))
            pushes += 1

    order: List[Op] = []
    while heap:
        delta, i = heapq.heappop(heap)
        pops += 1
        # skip stale entries: executed, or pushed before a later shrink
        if executed[i] or delta != grow[i] - shrink[i]:
            stale += 1
            continue
        executed[i] = True
        order.append(sk.ops[i])

        for t, c in uses[i]:
            remaining[t] -= c
            rem = remaining[t]
            if rem == 0:
                continue
            # a consumer now holding all remaining uses will free t
            for j, cj in holders[t]:
                if cj == rem and not executed[j]:
                    shrink[j] += size_arr[t]
                    if is_ready[j]:
                        heapq.heappush(heap, (grow[j] - shrink[j], j))
                        pushes += 1
        for j in edge_consumers[i]:
            pending[j] -= 1
            if pending[j] == 0 and not is_ready[j]:
                is_ready[j] = True
                heapq.heappush(heap, (grow[j] - shrink[j], j))
                pushes += 1
    _SCHEDULES.inc()
    _HEAP_PUSHES.inc(pushes)
    _HEAP_POPS.inc(pops)
    _HEAP_STALE.inc(stale)
    if len(order) != n:
        raise ValueError(f"graph {sk.name} has a cycle")
    return order


def liveness_peak(
    graph: Graph,
    order: Sequence[Op],
    sizes: Mapping[Tensor, int],
    *,
    aliases: Optional[Mapping[Tensor, Tensor]] = None,
) -> int:
    """Peak live bytes over a schedule (the footprint of that traversal):
    the maximum of :func:`liveness_trace`, or the persistent bytes of a
    schedule with no ops."""
    trace = liveness_trace(graph, order, sizes, aliases=aliases)
    return max(trace) if trace else liveness_bounds(graph, sizes)[0]


def liveness_trace(
    graph: Graph,
    order: Sequence[Op],
    sizes: Mapping[Tensor, int],
    *,
    aliases: Optional[Mapping[Tensor, Tensor]] = None,
) -> List[int]:
    """Live bytes at each position of a schedule, once its op's outputs
    are allocated and before its dead inputs are freed.

    A non-persistent tensor becomes live when produced and dies after
    its last consumer executes.  Graph outputs (no consumers) stay live
    to the end.  Persistent tensors (weights) and graph inputs are live
    for the whole step, and every entry includes them.

    ``aliases`` maps in-place outputs to the input whose buffer they
    reuse (see :func:`repro.graph.inplace_aliases`).  A chain of them
    is one buffer: its root is charged once, when produced, and the
    buffer dies when its members' uses are all spent — never, if one
    member is a graph output.
    """
    sk = skeleton(graph)
    size_arr = _size_array(sk, sizes)
    persistent = sum(size_arr[i] for i in sk.persistent_idx)
    owner, charge, uses = _buffers(sk, size_arr, aliases or {})

    op_index = sk.op_index
    out_live = sk.out_live
    live_uses = sk.live_uses
    live = persistent
    trace = []
    for op in order:
        i = op_index[op]
        for t in out_live[i]:
            live += charge[t]
        trace.append(live)
        for t, c in live_uses[i]:
            buf = owner[t]
            uses[buf] -= c
            if uses[buf] == 0:
                live -= size_arr[buf]
    return trace


def _buffers(sk: GraphSkeleton, size_arr: List[int],
             aliases: Mapping[Tensor, Tensor]
             ) -> Tuple[List[int], List[int], List[int]]:
    """``(owner, charge, uses)`` of the buffers an alias map implies.

    ``owner`` maps each tensor to its chain's root; ``charge`` is the
    root's size at the root and 0 at the other members; ``uses`` holds,
    at each root, the summed consumer counts of its chain, plus one
    that is never spent if a member has no consumer.  Without aliases
    every tensor is its own buffer.
    """
    counts = sk.consumer_counts
    owner = list(range(len(size_arr)))
    charge = list(size_arr)
    uses = list(counts)
    index = {t: i for i, t in enumerate(sk.tensors)} if aliases else {}
    link = {index[out]: index[src] for out, src in aliases.items()}
    for t in list(link):
        path = []
        while t in link:
            path.append(t)
            t = link.pop(t)
        root = owner[t]  # t is a root, or a member resolved earlier
        for member in path:
            owner[member] = root
            charge[member] = 0
            uses[root] += counts[member] or 1
    return owner, charge, uses


def liveness_bounds(
    graph: Graph,
    sizes: Mapping[Tensor, int],
    *,
    aliases: Optional[Mapping[Tensor, Tensor]] = None,
) -> Tuple[int, int]:
    """``(persistent, working_set)`` bytes under the liveness rule.

    ``persistent`` is what :func:`liveness_peak` charges for the whole
    step; ``working_set`` is the largest live input plus output bytes
    of one op (disjoint in an acyclic graph), live at once under every
    schedule, so their sum bounds every traversal's peak from below.
    ``aliases`` charges buffers as :func:`liveness_trace` does: an
    in-place chain's root is counted once, so the bound also holds for
    aliased schedules, and is never above the unaliased one.  (Under
    :func:`~repro.graph.inplace_aliases`' rule an op's inputs are
    never members of one chain: a member's source has one reader.)
    """
    sk = skeleton(graph)
    size_arr = _size_array(sk, sizes)
    persistent = sum(size_arr[i] for i in sk.persistent_idx)
    owner, charge, _ = _buffers(sk, size_arr, aliases or {})
    working_set = 0
    for outs, uses in zip(sk.out_live, sk.live_uses):
        local = 0
        for t in outs:
            local += charge[t]
        for t, _ in uses:
            local += size_arr[owner[t]]
        if local > working_set:
            working_set = local
    return persistent, working_set
