"""Common model-zoo type: the built model bundle.

Every builder returns a :class:`BuiltModel` — graph + loss + the
symbols that stay free (always the subbatch ``b``, usually a size
symbol like hidden width) — which the analysis layer consumes to derive
per-sample/per-step requirement formulas exactly like the paper's
TFprof methodology (§4.1), but in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..graph import Graph, Tensor, build_training_step
from ..symbolic import Expr, Symbol

__all__ = ["BuiltModel"]


@dataclass
class BuiltModel:
    """A constructed model: forward graph (+ training step if built)."""

    domain: str
    graph: Graph
    loss: Tensor
    #: subbatch symbol (free in all requirement expressions)
    batch: Symbol
    #: model-size symbol left free (hidden width / width multiplier);
    #: None when the builder received concrete sizes
    size_symbol: Optional[Symbol] = None
    #: recurrent sequence length(s) and other structure notes
    meta: Dict[str, object] = field(default_factory=dict)

    def parameter_count(self) -> Expr:
        return self.graph.parameter_count()

    def with_training_step(self) -> "BuiltModel":
        """Append backward + SGD update ops and finalize the graph.

        Idempotent via a meta flag.  The finished training step is
        frozen (:meth:`~repro.graph.Graph.finalize`), so its op classes
        are computed once and shared by every cost pass.
        """
        if not self.meta.get("training_step_built"):
            grads = build_training_step(self.graph, self.loss)
            self.graph.finalize()
            self.meta["training_step_built"] = True
            # keep the param→grad map for the autodiff lint pass
            # (repro.check.autodiff re-verifies it against the graph)
            self.meta["param_grads"] = {
                p.name: g.name for p, g in grads.items() if g is not None
            }
        return self
