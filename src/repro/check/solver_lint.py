"""M-rules: prove the bisection solver's monotonicity preconditions.

``choose_subbatch`` runs three ``bisect_increasing`` roots per plan;
each silently assumes its objective is monotone over the bracket, and
a violated assumption surfaces only as a wrong root with no error at
all.  This pass discharges the assumption statically: the planner
exposes its curve family symbolically
(:func:`repro.planner.subbatch.symbolic_curves`, every fitted constant
a free symbol), and the log-elasticity analysis in
:mod:`repro.check.absint` proves each curve's direction over *all*
positive constants at once — one proof covers every model ×
accelerator instantiation the planner can ever produce.

* **M001** — a required direction could not be proven (the finite-
  difference oracle is consulted for the message, but an unproved
  precondition is an error regardless: the solver would be guessing).
* **M002** — the proof *refutes* the requirement: the curve is
  provably monotone the wrong way somewhere in the bracket.
* **M003** — a solver bracket extends outside the curve's declared
  symbol domain, so the proof does not cover the whole search range.
"""

from __future__ import annotations

from typing import List, Optional

from ..planner.subbatch import SymbolicCurve, symbolic_curves
from .absint import (
    CONSTANT,
    NONDECREASING,
    NONINCREASING,
    UNKNOWN,
    BindingDomain,
    monotonicity,
    probe_monotonicity,
    record_outcome,
)
from .diagnostics import Diagnostic

__all__ = ["solver_diagnostics", "curve_domain", "GRAPH_LABEL"]

#: pseudo-graph label the findings are anchored to in registry output
GRAPH_LABEL = "planner.subbatch"

#: positive ranges for the fitted constants — γ, λ, µ, c1, c2 span the
#: fitted coefficient scales, p the parameter counts, xc/xa the
#: accelerator throughputs.  The elasticity proofs are scale-free (they
#: hold for all positive values); these ranges only anchor the interval
#: positivity side conditions and the probe oracle.
_CONSTANT_RANGES = {
    "p": (1e3, 1e12),
    "gamma": (1e-3, 1e3),
    "lam": (1e-3, 1e3),
    "mu": (1e-3, 1e3),
    "c1": (1e-6, 1e3),
    "c2": (1e-6, 1e3),
    "xc": (1e9, 1e16),
    "xa": (1e9, 1e14),
}


def curve_domain(curve: SymbolicCurve) -> BindingDomain:
    """The declared domain of one solver curve: bracket × constants.

    An explicitly declared constant range wins over the bracket: when
    a curve bisects over a symbol that already has a declared range,
    the proof runs over the declared domain and any bracket overhang
    is M003's to report, not to silently paper over.
    """
    lo, hi = curve.bracket
    ranges = dict(_CONSTANT_RANGES)
    ranges.setdefault(curve.solve_symbol.name, (float(lo), float(hi)))
    return BindingDomain(ranges)


def solver_diagnostics(
        curves: Optional[List[SymbolicCurve]] = None) -> List[Diagnostic]:
    """Run the M-family rules over the planner's curve family."""
    if curves is None:
        curves = symbolic_curves()
    out: List[Diagnostic] = []
    for curve in curves:
        domain = curve_domain(curve)
        sym = curve.solve_symbol

        lo, hi = curve.bracket
        sym_iv = domain.get(sym.name)
        if lo < sym_iv.lo or hi > sym_iv.hi:
            out.append(Diagnostic(
                "M003",
                f"curve {curve.name!r} is bisected over "
                f"[{lo:g}, {hi:g}] but its domain declares "
                f"{sym.name} in {sym_iv!r}",
                graph=GRAPH_LABEL, obj=curve.name,
            ))

        verdict = monotonicity(curve.expr, sym, domain)
        proof = {
            "method": "log-elasticity",
            "verdict": verdict,
            "required": curve.required,
            "symbol": sym.name,
            "bracket": list(curve.bracket),
            "domain": domain.to_dict(),
        }
        if verdict == curve.required or verdict == CONSTANT:
            record_outcome("proved")
            continue
        if verdict in (NONDECREASING, NONINCREASING):
            record_outcome("refuted")
            out.append(Diagnostic(
                "M002",
                f"curve {curve.name!r} ({curve.note}) is provably "
                f"{verdict} in {sym.name} where bisect_increasing "
                f"requires {curve.required}",
                graph=GRAPH_LABEL, obj=curve.name,
                data={"proof": proof},
            ))
            continue
        record_outcome("fallback")
        oracle = probe_monotonicity(curve.expr, sym, domain)
        hint = ("the finite-difference oracle agrees with the "
                "requirement, but agreement at probes is not a proof"
                if oracle in (curve.required, CONSTANT) else
                f"the finite-difference oracle says {oracle!r}")
        out.append(Diagnostic(
            "M001",
            f"curve {curve.name!r} ({curve.note}): could not prove "
            f"{curve.required} in {sym.name} over "
            f"[{curve.bracket[0]:g}, {curve.bracket[1]:g}]; {hint}",
            graph=GRAPH_LABEL, obj=curve.name,
            data={"proof": dict(proof, oracle=oracle)},
        ))
    return out
