"""Lint driver: run the passes a filter reports over a graph, a model,
or the registry.

The driver is what ``repro-lint`` (and CI) calls.  Per graph it runs
the structural, dataflow, cost, autodiff, tape, and interval passes
(the S/G/C/A/T/I families), each only when one of its rule codes can
get past the rule filter (``--select`` / ``--ignore``) and the
per-graph suppressions (``BuiltModel.meta["lint_suppress"]``, a list of
rule codes or family prefixes); the filter then keeps the matching
findings rule by rule.  One :class:`~repro.check.dataflow.DataflowIndex`
per graph serves the dataflow and autodiff passes, built only when one
of them runs.  Registry-wide runs additionally lint the planner's
solver preconditions (the M family) as a pseudo-row keyed
``planner.subbatch`` — those proofs are per curve family, not per
model graph — and the row is there, empty, when M is filtered out.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..graph.graph import Graph
from ..graph.tensor import Tensor
from .absint import BindingDomain
from .autodiff import autodiff_diagnostics
from .costs import cost_diagnostics
from .dataflow import DataflowIndex
from .diagnostics import (GRAPH_FAMILIES, Diagnostic, family_passes,
                          filter_diagnostics)
from .graph_lint import dataflow_diagnostics
from .intervals import interval_diagnostics, model_binding_domain
from .structure import structural_diagnostics
from .tape import equivalence_diagnostics, verify_tape

__all__ = ["lint_graph", "lint_model", "lint_registry",
           "SOLVER_KEY"]

#: pseudo-domain key the M-family findings appear under in
#: :func:`lint_registry` output (they are per solver curve family,
#: not per model graph)
SOLVER_KEY = "planner.subbatch"


def _tape_diagnostics(graph: Graph) -> List[Diagnostic]:
    """Verify the graph's size program and aggregate-count tapes."""
    from ..graph.traversal import size_program

    out: List[Diagnostic] = []
    tensors, program = size_program(graph)
    out.extend(verify_tape(program, label=f"{graph.name}.sizes"))
    # randomized equivalence on a bounded sample of size expressions —
    # the aggregates below exercise every op formula end to end anyway
    sample = [t.size_bytes() for t in tensors[:64]]
    out.extend(equivalence_diagnostics(
        sample, label=f"{graph.name}.sizes"))

    aggregates = [
        graph.total_flops(),
        graph.total_bytes_accessed(),
        graph.parameter_count(),
        graph.algorithmic_io_bytes(),
    ]
    from ..symbolic.compile import compile_batch

    program = compile_batch(aggregates)
    out.extend(verify_tape(program, label=f"{graph.name}.aggregates"))
    out.extend(equivalence_diagnostics(
        aggregates, prog=program, label=f"{graph.name}.aggregates"))
    for d in out:
        d.graph = graph.name
    return out


def lint_graph(
    graph: Graph,
    *,
    loss: Optional[Tensor] = None,
    param_grads: Optional[Dict[str, str]] = None,
    domain: Optional[BindingDomain] = None,
    select: Optional[Sequence[str]] = None,
    ignore: Sequence[str] = (),
    suppress: Sequence[str] = (),
) -> List[Diagnostic]:
    """Run the graph-level pass families the filter can report over one
    graph.

    A family's pass runs only when one of its rule codes can get past
    ``select``, ``ignore`` and ``suppress``; the kept findings are then
    filtered rule by rule, so they equal the filtered findings of every
    pass.  ``domain`` declares per-symbol ranges for the interval
    (I-family) proofs; without one the conservative default ranges
    apply.
    """
    run = {family for family in GRAPH_FAMILIES
           if family_passes(family, select=select, ignore=ignore,
                            suppress=suppress)}
    index = (DataflowIndex(graph, loss=loss)
             if run & {"G", "A"} else None)
    diagnostics: List[Diagnostic] = []
    if "S" in run:
        diagnostics.extend(structural_diagnostics(graph))
    if "G" in run:
        diagnostics.extend(dataflow_diagnostics(
            graph, loss=loss, index=index))
    if "C" in run:
        diagnostics.extend(cost_diagnostics(graph))
    if "A" in run:
        diagnostics.extend(autodiff_diagnostics(
            graph, loss=loss, param_grads=param_grads, index=index))
    if "T" in run:
        diagnostics.extend(_tape_diagnostics(graph))
    if "I" in run:
        diagnostics.extend(interval_diagnostics(graph, domain))
    return filter_diagnostics(
        diagnostics, select=select, ignore=ignore, suppress=suppress)


def lint_model(model, *,
               select: Optional[Sequence[str]] = None,
               ignore: Sequence[str] = ()) -> List[Diagnostic]:
    """Lint a :class:`~repro.models.base.BuiltModel`.

    Uses the model's loss as the dataflow root, the recorded
    ``param_grads`` map for autodiff verification, the registry sweep
    ranges as the interval-proof domain, and honors the per-graph
    ``meta["lint_suppress"]`` rule list.
    """
    return lint_graph(
        model.graph,
        loss=model.loss,
        param_grads=model.meta.get("param_grads"),
        domain=model_binding_domain(model),
        select=select,
        ignore=ignore,
        suppress=tuple(model.meta.get("lint_suppress", ())),
    )


def lint_registry(
    domains: Optional[Sequence[str]] = None,
    *,
    training: bool = True,
    select: Optional[Sequence[str]] = None,
    ignore: Sequence[str] = (),
) -> Dict[str, List[Diagnostic]]:
    """Lint every registry model; returns {domain key: diagnostics}.

    A full-registry run (no explicit ``domains``) also verifies the
    planner's bisection preconditions (M family) under the
    ``planner.subbatch`` pseudo-key — one proof covers every model the
    solver can plan for.  The key is there on every full-registry run;
    the proofs run only when an M code gets past the filter.  When no
    graph family can get past it, no model is built and every domain's
    row is empty.
    """
    from ..models.registry import DOMAINS, build_symbolic
    from .solver_lint import solver_diagnostics

    keys = list(domains) if domains else sorted(DOMAINS)
    graphs = any(family_passes(family, select=select, ignore=ignore)
                 for family in GRAPH_FAMILIES)
    out: Dict[str, List[Diagnostic]] = {}
    for key in keys:
        out[key] = (lint_model(build_symbolic(key, training=training),
                               select=select, ignore=ignore)
                    if graphs else [])
    if not domains:
        found: List[Diagnostic] = []
        if family_passes("M", select=select, ignore=ignore):
            found = solver_diagnostics()
        out[SOLVER_KEY] = filter_diagnostics(
            found, select=select, ignore=ignore)
    return out
