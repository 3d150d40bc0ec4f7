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

The names below are re-exported lazily: ``import repro.check`` loads
no pass until one of its names is read.
"""

from importlib import import_module

#: public name -> the submodule that defines it
_EXPORTS = {
    "Diagnostic": "diagnostics",
    "Rule": "diagnostics",
    "RULES": "diagnostics",
    "ERROR": "diagnostics",
    "WARNING": "diagnostics",
    "INFO": "diagnostics",
    "filter_diagnostics": "diagnostics",
    "DataflowIndex": "dataflow",
    "lint_graph": "driver",
    "lint_model": "driver",
    "lint_registry": "driver",
    "SOLVER_KEY": "driver",
    "structural_diagnostics": "structure",
    "dataflow_diagnostics": "graph_lint",
    "cost_diagnostics": "costs",
    "autodiff_diagnostics": "autodiff",
    "verify_tape": "tape",
    "equivalence_diagnostics": "tape",
    "Interval": "absint",
    "BindingDomain": "absint",
    "interval_of_expr": "absint",
    "interval_of_tape": "absint",
    "sign_of": "absint",
    "monotonicity": "absint",
    "probe_monotonicity": "absint",
    "interval_diagnostics": "intervals",
    "model_binding_domain": "intervals",
    "registry_binding_domain": "intervals",
    "solver_diagnostics": "solver_lint",
    "task_diagnostics": "exec_lint",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    # lazy re-exports: the exec engine's pre-dispatch lint loads
    # diagnostics and exec_lint, not the graph passes or absint
    if name not in _EXPORTS:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value
