"""In-place op optimization (paper §4.5).

The paper notes its topological footprint estimates slightly
*over*-estimate TensorFlow's allocator because "Tensorflow optimizes to
perform some ops on tensors in-place rather than allocating separate
output tensors."  This pass reproduces that optimization.

:func:`inplace_aliases` finds safe candidates: a pointwise-style op
whose first input is a transient activation with no other consumer can
write its output over the input buffer.  Passing the map to
:func:`repro.graph.liveness_peak` as ``aliases=`` replays a schedule
with each aliased chain sharing one allocation, freed when the whole
chain is dead.

Eligibility is conservative (single-consumer, same element count and
dtype, not a weight/input), matching what a framework can prove
statically.
"""

from __future__ import annotations

from typing import Dict

from .graph import Graph
from .tensor import Tensor

__all__ = ["inplace_aliases"]

#: op kinds that compute elementwise over their first input and may
#: safely reuse its buffer
_INPLACE_KINDS = frozenset({
    "add", "sub", "mul", "scale", "one_minus",
    "relu", "sigmoid", "tanh", "exp",
    "relu_grad", "sigmoid_grad", "tanh_grad", "exp_grad",
})


def inplace_aliases(graph: Graph) -> Dict[Tensor, Tensor]:
    """Map each in-place-eligible output tensor to the input it reuses.

    An op may write over its first input when:

    * the op kind is elementwise over that input,
    * the input is a transient activation (not a weight or graph
      input — those must survive the step),
    * the op is the input's *only* consumer (no one else reads it),
    * input and output match in element count and dtype.
    """
    aliases: Dict[Tensor, Tensor] = {}
    for op in graph.ops:
        if op.kind not in _INPLACE_KINDS:
            continue
        if not op.inputs or len(op.outputs) != 1:
            continue
        src = op.inputs[0]
        out = op.outputs[0]
        if src.is_persistent or src.producer is None:
            continue
        if len(src.consumers) != 1:
            continue
        if src.dtype_bytes != out.dtype_bytes:
            continue
        if src.num_elements() != out.num_elements():
            continue
        aliases[out] = src
    return aliases
