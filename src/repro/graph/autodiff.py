"""Reverse-mode autodiff: build the explicit backward + update graph.

The paper's training-step costs cover forward propagation, backward
propagation (which "usually has twice the algorithmic FLOPs as the
forward traversal" for matrix ops — a property that emerges here
because a matmul's gradient is two matmuls), and the optimizer's weight
update.  Building the backward graph *explicitly* (rather than scaling
forward costs by 3) lets the same liveness machinery measure the full
training-step memory footprint, where activations must stay live until
their gradient op consumes them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .graph import Graph
from .op import Op
from .tensor import Tensor, TensorKind

__all__ = ["differentiate", "attach_sgd_update", "build_training_step"]


def differentiate(graph: Graph, loss: Tensor,
                  targets: Optional[Sequence[Tensor]] = None
                  ) -> Dict[Tensor, Tensor]:
    """Append the backward graph for ``loss``; return grads for targets.

    Parameters
    ----------
    graph:
        Graph containing the forward ops (mutated in place).
    loss:
        Scalar (or reduced) tensor the gradient flows from; seeded with
        an implicit all-ones gradient.
    targets:
        Tensors whose gradients are requested.  Defaults to all
        trainable parameters.

    Returns a dict mapping each target tensor to its gradient tensor.
    Targets unreachable from the loss are omitted.
    """
    from ..ops.pointwise import add  # late import: ops depend on graph

    if targets is None:
        targets = graph.parameters()

    if not loss.requires_grad:
        raise ValueError(
            f"loss {loss.name} does not depend on any trainable parameter"
        )

    # topological (see Graph.add_op), with each op's loop tag: the
    # backward ops of a forward op, and the gradient accumulations it
    # causes, carry its tag
    forward = list(zip(graph.ops, graph.tags))

    # Seed: d(loss)/d(loss) = 1, same shape as loss.
    grads: Dict[Tensor, List[Tensor]] = {}
    seed = graph.tensor(f"grad/{loss.name}/seed", loss.shape,
                        dtype_bytes=loss.dtype_bytes,
                        kind=TensorKind.GRADIENT)
    graph.add_op(_GradSeed(graph.unique_name(f"grad/{loss.name}/seed_op"),
                           loss, seed))
    grads[loss] = [seed]

    def resolved(t: Tensor) -> Optional[Tensor]:
        parts = grads.get(t)
        if not parts:
            return None
        if len(parts) == 1:
            return parts[0]
        total = parts[0]
        for part in parts[1:]:
            total = add(graph, total, part, name=f"grad/{t.name}/acc")
        grads[t] = [total]
        return total

    for op, tag in reversed(forward):
        with graph.tagged(tag):
            grad_outputs = [resolved(out) for out in op.outputs]
            if all(g is None for g in grad_outputs):
                continue
            if not any(t.requires_grad for t in op.inputs):
                continue
            input_grads = op.backward(graph, grad_outputs)
            if len(input_grads) != len(op.inputs):
                raise ValueError(
                    f"{op.name}.backward returned {len(input_grads)} grads "
                    f"for {len(op.inputs)} inputs"
                )
            for t, g in zip(op.inputs, input_grads):
                if g is None:
                    continue
                if not t.requires_grad:
                    continue
                if tuple(g.shape) != tuple(t.shape):
                    raise ValueError(
                        f"gradient shape mismatch for {t.name} via {op.name}: "
                        f"{g.shape} vs {t.shape}"
                    )
                # accumulate eagerly: keeping partial gradients alive until
                # a final reduction would hold every unrolled time step's
                # dW live at once (frameworks add in place)
                if t in grads and grads[t]:
                    prev = grads[t][0]
                    grads[t] = [add(graph, prev, g,
                                    name=f"grad/{t.name}/acc")]
                else:
                    grads[t] = [g]

    return {
        t: resolved(t) for t in targets if resolved(t) is not None
    }


class _GradSeed(Op):
    """Produces the all-ones seed gradient of the loss (zero FLOPs)."""

    kind = "grad_seed"

    def __init__(self, name: str, loss: Tensor, seed: Tensor):
        super().__init__(name, [loss], [seed])

    def bytes_accessed(self):
        # writes the seed only; does not re-read the loss value
        return self.outputs[0].size_bytes()

    def execute(self, inputs, output_shapes=()):
        import numpy as np

        return (np.ones(inputs[0].shape, dtype=inputs[0].dtype),)


def attach_sgd_update(graph: Graph,
                      grads: Dict[Tensor, Tensor]) -> List[Op]:
    """Append an SGD weight-update op per parameter gradient.

    The update reads the weight and its gradient and writes the new
    weight (2 FLOPs/element: scale + subtract), matching the paper's
    inclusion of weight updates in per-step memory accesses.
    """
    from ..ops.optimizer import sgd_update

    ops = []
    for param, grad in grads.items():
        ops.append(sgd_update(graph, param, grad))
    return ops


def build_training_step(graph: Graph, loss: Tensor) -> Dict[Tensor, Tensor]:
    """Differentiate w.r.t. all parameters and attach SGD updates.

    After this call, ``graph`` contains the complete training step
    (forward + backward + update) whose aggregate FLOPs/bytes/footprint
    the analysis layer reports.  Returns the parameter→gradient map.
    """
    grads = differentiate(graph, loss)
    attach_sgd_update(graph, grads)
    return grads
