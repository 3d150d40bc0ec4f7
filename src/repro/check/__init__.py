"""Static analysis and lint passes over compute graphs and tapes.

The paper's results rest on per-op algorithmic FLOP/byte formulas and
the graph wiring they run over; Fathom (Adolf et al.) shows how easily
reference-workload characterizations drift from the real graphs.  This
package is the correctness gate that runs *without executing anything*:

* :mod:`repro.check.structure` — structural invariants (the former
  ``graph/validate.py`` checks), as diagnostics with rule codes;
* :mod:`repro.check.graph_lint` — dataflow lint: dead ops/tensors,
  parameters never touched by an optimizer op;
* :mod:`repro.check.costs` — dimensional analysis of each op's
  FLOP/byte formulas against its tensor shapes via ``symbolic.poly``;
* :mod:`repro.check.autodiff` — gradient-graph completeness and
  symbolic shape agreement;
* :mod:`repro.check.tape` — static slot-lifetime verification and
  randomized tape≡tree equivalence for ``CompiledExpr`` programs;
* :mod:`repro.check.absint` — the abstract-interpretation engine:
  interval, sign, and monotonicity domains over exprs and tapes;
* :mod:`repro.check.intervals` — I-family whole-domain interval
  proofs of cost-formula nonnegativity, overflow-freedom, and
  intensity bounds;
* :mod:`repro.check.solver_lint` — M-family proofs of the bisection
  solver's monotonicity preconditions over the planner curve family;
* :mod:`repro.check.exec_lint` — X-family static task-list lint
  (store-key collisions, output write races), run by the exec engine
  before dispatch.

Every pass emits :class:`~repro.check.diagnostics.Diagnostic` records
with severity-ranked stable rule codes (``G001 dead-op`` …).  The
``repro-lint`` console script (:mod:`repro.check.cli`) drives the
passes its rule filter selects across every registry model and exits
nonzero on error-severity findings — the CI gate.
"""

from .diagnostics import (
    ERROR,
    INFO,
    RULES,
    WARNING,
    Diagnostic,
    Rule,
    filter_diagnostics,
)
from .absint import (
    BindingDomain,
    Interval,
    interval_of_expr,
    interval_of_tape,
    monotonicity,
    probe_monotonicity,
    sign_of,
)
from .autodiff import autodiff_diagnostics
from .costs import cost_diagnostics
from .dataflow import DataflowIndex
from .driver import SOLVER_KEY, lint_graph, lint_model, lint_registry
from .exec_lint import task_diagnostics
from .graph_lint import dataflow_diagnostics
from .intervals import (
    interval_diagnostics,
    model_binding_domain,
    registry_binding_domain,
)
from .solver_lint import solver_diagnostics
from .structure import structural_diagnostics
from .tape import equivalence_diagnostics, verify_tape

__all__ = [
    "Diagnostic",
    "Rule",
    "RULES",
    "ERROR",
    "WARNING",
    "INFO",
    "filter_diagnostics",
    "DataflowIndex",
    "lint_graph",
    "lint_model",
    "lint_registry",
    "SOLVER_KEY",
    "structural_diagnostics",
    "dataflow_diagnostics",
    "cost_diagnostics",
    "autodiff_diagnostics",
    "verify_tape",
    "equivalence_diagnostics",
    "Interval",
    "BindingDomain",
    "interval_of_expr",
    "interval_of_tape",
    "sign_of",
    "monotonicity",
    "probe_monotonicity",
    "interval_diagnostics",
    "model_binding_domain",
    "registry_binding_domain",
    "solver_diagnostics",
    "task_diagnostics",
]
