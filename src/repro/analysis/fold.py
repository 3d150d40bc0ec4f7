"""Folded unrolls: cost a long unrolled training graph from short ones.

A recurrent model's op list at unroll length ``q`` is a sequence of
fixed segments and runs of loop steps (:attr:`repro.graph.Graph.tags`
marks each op's step), and that sequence is the same at every length.
So the graph need not be built at its registry length:

* its aggregate counts and its op count are multilinear in the loop
  lengths, and exact interpolation over a grid of short unrolls of the
  same builder gives them, as the identical interned expressions;
* its program-order footprint is the maximum over schedule positions
  of the live bytes there.  Each position is keyed by its segment, its
  instance (one of the first two, one of the last two, or an end of
  the interior ones, which repeat one layout) and its offset inside
  that instance.  Every key's live bytes are multilinear in the
  lengths, and inside the interior they change linearly from step to
  step, so the largest one sits at an end.  The fold extrapolates every
  key from the grid and takes the maximum.

The fold checks itself.  It builds one more unroll, past the grid, and
raises :class:`~repro.errors.InternalError` (E-INT) if the segment
layout differs there, or if a count, an aggregate or the footprint it
predicts for that point disagrees with the direct one.  It never
returns an unverified number.
"""

from __future__ import annotations

import inspect
import operator
from functools import reduce
from itertools import product
from math import prod
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

from ..errors import InternalError
from ..graph import Graph, evaluate_sizes, liveness_trace
from ..models.base import BuiltModel
from ..models.registry import get_domain
from .counters import AGGREGATES, StepCounts

__all__ = ["Fold", "fold_domain"]

#: ``(argument, first, step)`` per unrolled loop (see DomainEntry.loops)
Loops = Sequence[Tuple[str, int, int]]

#: instances of a run keyed on their own: the first two, the two ends
#: of the interior, the last two
_KEYED = (0, 1, 2, -3, -2, -1)


def _layout(name: str, graph: Graph) -> Tuple[tuple, List[int]]:
    """``(shape, positions)`` of a graph's op list.

    ``shape`` lists the segments, ``(None, (n_ops,))`` for a fixed one
    and ``(loop, keyed instance lengths)`` for a run of loop steps:
    graphs of equal shape have the same position keys.  ``positions``
    holds the op index of every key, in key order.
    """
    segments: List[Tuple[object, List[List]]] = []
    for i, tag in enumerate(graph.tags):
        loop, step = tag if tag is not None else (None, None)
        if not segments or segments[-1][0] != loop:
            segments.append((loop, []))
        instances = segments[-1][1]  # [start, length, step]
        if instances and instances[-1][2] == step:
            instances[-1][1] += 1
        else:
            instances.append([i, 1, step])
    shape, positions = [], []
    for loop, instances in segments:
        keyed = instances
        if loop is not None:
            if len({n for _, n, _ in instances[2:-2]}) != 1:
                raise InternalError(
                    f"{name}: cannot fold loop {loop!r} of "
                    f"{graph.name}: its run of {len(instances)} steps "
                    "has no interior of equal steps (run structure)")
            keyed = [instances[k] for k in _KEYED]
        shape.append((loop, tuple(n for _, n, _ in keyed)))
        for start, n, _ in keyed:
            positions.extend(range(start, start + n))
    return tuple(shape), positions


def _weights(name: str, loops: Loops,
             lengths: Mapping[str, int]) -> List[int]:
    """Multilinear interpolation weights of the grid corners (in
    ``product((0, 1), ...)`` order) at ``lengths``."""
    alphas = []
    for arg, first, step in loops:
        alpha, off = divmod(lengths[arg] - first, step)
        if off:
            raise InternalError(
                f"{name}: {arg}={lengths[arg]} is off the fold's grid "
                f"({first} + k*{step})")
        alphas.append(alpha)
    return [prod(a if c else 1 - a for a, c in zip(alphas, corner))
            for corner in product((0, 1), repeat=len(loops))]


def _combine(weights: Sequence[int], values: Sequence):
    """``Σ wᵢ·vᵢ`` for ints and for interned expressions alike."""
    return reduce(operator.add, (w * v for w, v in zip(weights, values)))


def _trace(graph: Graph, bindings: Mapping) -> List[int]:
    return liveness_trace(graph, graph.ops, evaluate_sizes(graph, bindings))


class Fold:
    """The training step of ``build`` at ``lengths``, costed from short
    unrolls of it (see the module docstring).

    ``build(**{argument: length})`` returns the model with its training
    step.  ``loops`` names its unroll-length arguments as ``(argument,
    first, step)``: the grid is ``first`` and ``first + step`` of each,
    the check point ``first + 2·step`` of all.
    """

    def __init__(self, name: str, build: Callable[..., BuiltModel],
                 loops: Loops, lengths: Mapping[str, int]):
        self.name = name
        check_lengths = {arg: first + 2 * step
                         for arg, first, step in loops}
        self._weights = _weights(name, loops, lengths)
        self._check_weights = _weights(name, loops, check_lengths)
        self.where = ", ".join(f"{arg}={n}"
                               for arg, n in check_lengths.items())
        self.models = [
            build(**{arg: first + c * step
                     for (arg, first, step), c in zip(loops, corner)})
            for corner in product((0, 1), repeat=len(loops))
        ]
        self.check = build(**check_lengths)

        layouts = [_layout(name, m.graph) for m in self.models]
        shape, self._check_positions = _layout(name, self.check.graph)
        if any(s != shape for s, _ in layouts):
            raise InternalError(
                f"{name}: the run structure at {self.where} differs "
                "from the fold's grid")
        self._positions = [positions for _, positions in layouts]

        sizes = [len(m.graph) for m in self.models]
        self._verify("op count", _combine(self._check_weights, sizes)
                     == len(self.check.graph))
        #: op count at ``lengths``
        self.op_count = _combine(self._weights, sizes)

        grid = [StepCounts(m) for m in self.models]
        direct = StepCounts(self.check)
        aggregates = {}
        for agg in AGGREGATES:
            values = [getattr(counts, agg) for counts in grid]
            self._verify(agg, _combine(self._check_weights, values)
                         is getattr(direct, agg))
            aggregates[agg] = _combine(self._weights, values)
        #: the step's counts at ``lengths``; ``counts.model`` is the
        #: first grid unroll, read only for its symbols
        self.counts = StepCounts(self.models[0], aggregates)

    def _verify(self, quantity: str, agrees: bool) -> None:
        if not agrees:
            raise InternalError(
                f"{self.name}: the folded {quantity} disagrees with a "
                f"direct build at {self.where}")

    def footprint(self, bindings: Mapping) -> int:
        """Program-order peak live bytes at ``lengths`` under
        ``bindings`` (``estimate_footprint(...).program_order_bytes``
        of the full build), checked at the check point first."""
        grid = []
        for model, positions in zip(self.models, self._positions):
            trace = _trace(model.graph, bindings)
            grid.append([trace[p] for p in positions])
        columns = list(zip(*grid))  # one per position key
        check = _trace(self.check.graph, bindings)
        predicted = [_combine(self._check_weights, c) for c in columns]
        self._verify("footprint", max(predicted) == max(check) and (
            predicted == [check[p] for p in self._check_positions]))
        return max(_combine(self._weights, c) for c in columns)


_FOLDS: Dict[str, Fold] = {}


def _registry_lengths(key: str) -> Dict[str, int]:
    """A domain's unroll lengths at the registry: its builder's
    defaults unless ``build_kwargs`` sets them."""
    entry = get_domain(key)
    params = inspect.signature(entry.build).parameters
    return {arg: entry.build_kwargs.get(arg, params[arg].default)
            for arg, _, _ in entry.loops}


def fold_domain(key: str) -> Fold:
    """The domain's fold at its registry unroll lengths (memoized)."""
    fold = _FOLDS.get(key)
    if fold is None:
        entry = get_domain(key)
        fold = _FOLDS.setdefault(key, Fold(
            key, entry.build_model, entry.loops, _registry_lengths(key)))
    return fold
