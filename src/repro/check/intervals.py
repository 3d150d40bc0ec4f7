"""I-rules: interval proofs over declared binding domains.

The C-family checks each cost formula symbolically where the
posynomial fragment allows and probes a handful of bindings otherwise;
this pass quantifies over the *whole declared domain* with the
abstract-interpretation engine (:mod:`repro.check.absint`):

* **I001** — a cost formula (FLOPs, bytes) provably goes negative at a
  point inside the declared domain.  Reported only with a concrete
  witness binding (an interval lower bound below zero alone is an
  over-approximation, not a proof).
* **I002** — interval analysis shows a formula can overflow the float
  range or hit a domain error (``log`` of a non-positive value,
  ``0**negative``) somewhere in the domain — the runtime numeric guard
  (PR 5) would fire there, so surface it at lint time.
* **I003** — operational intensity provably exceeds its bound over the
  *entire* domain (``lb(flops) > ub(bytes·cap)``): the C005 probe
  finding upgraded from "at this binding" to "everywhere".

Every obligation ticks ``check.absint.proved/fallback/refuted``.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional

from ..graph.graph import Graph
from ..models.base import BuiltModel
from ..models.registry import DOMAINS
from ..symbolic import Expr
from ..symbolic.poly import nonnegative
from .absint import BindingDomain, Interval, interval_of_expr, record_outcome
from .diagnostics import Diagnostic, per_op_findings

__all__ = [
    "interval_diagnostics",
    "model_binding_domain",
    "registry_binding_domain",
]


def registry_binding_domain(key: str) -> BindingDomain:
    """The declared domain of one registry model.

    The size symbol ranges over the published sweep, the batch over
    ``[1, subbatch]``; any other free symbol (vocab, feature dims
    fixed by the builder) gets the conservative default range.
    """
    from ..models.registry import build_symbolic

    entry = DOMAINS[key]
    model = build_symbolic(key, training=True)
    return model_binding_domain(model, entry=entry)


def model_binding_domain(model: BuiltModel, *, entry=None) -> BindingDomain:
    """Declared ranges for a built model's free symbols."""
    if entry is None:
        entry = DOMAINS.get(model.domain)
    ranges: Dict[str, tuple] = {}
    if entry is not None:
        if model.size_symbol is not None:
            ranges[model.size_symbol.name] = (
                float(min(entry.sweep_sizes)),
                float(max(entry.sweep_sizes)),
            )
        ranges[model.batch.name] = (1.0, float(entry.subbatch))
    return BindingDomain(ranges)


def _witness_binding(expr: Expr, domain: BindingDomain,
                     predicate) -> Optional[Dict[str, float]]:
    """A concrete domain point where ``predicate(expr(x))`` holds."""
    names = [s.name for s in expr.free_symbols()]
    for binding in domain.sample(names):
        try:
            value = expr.evalf(binding)
        except (ValueError, OverflowError, ZeroDivisionError):
            if predicate(math.nan):
                return binding
            continue
        if predicate(value):
            return binding
    return None


def _binding_repr(binding: Dict[str, float]) -> str:
    return ", ".join(f"{k}={v:g}" for k, v in sorted(binding.items()))


def _check_formula(op, label: str, expr: Expr, domain: BindingDomain,
                   interval: Callable[[Expr], Interval]
                   ) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    proof = {
        "method": "interval",
        "domain": domain.to_dict(),
    }

    # nonnegativity: posynomial coefficients decide globally; the
    # interval bound covers the rest of the fragment
    iv = interval(expr)
    if nonnegative(expr) is True:
        record_outcome("proved")
    else:
        if iv.lo >= 0.0 and not iv.maybe_nan:
            record_outcome("proved")
        else:
            witness = _witness_binding(
                expr, domain,
                lambda v: not math.isnan(v) and v < 0.0,
            )
            if witness is not None:
                record_outcome("refuted")
                out.append(Diagnostic(
                    "I001",
                    f"op {op.name} ({op.kind}) {label} formula is "
                    f"negative ({expr.evalf(witness):g}) at "
                    f"[{_binding_repr(witness)}], inside the declared "
                    "domain",
                    obj=op.name,
                    data={"proof": dict(proof, witness=witness,
                                        interval=(iv.lo, iv.hi))},
                ))
            else:
                record_outcome("fallback")

    # overflow / domain-error reachability
    if not iv.finite:
        kind = ("a float domain error" if iv.maybe_nan
                else "the float range")
        out.append(Diagnostic(
            "I002",
            f"op {op.name} ({op.kind}) {label} formula can reach "
            f"{kind} inside the declared domain "
            f"(bounds {iv!r})",
            obj=op.name,
            data={"proof": dict(proof, interval=(iv.lo, iv.hi),
                                maybe_nan=iv.maybe_nan)},
        ))
    return out


def _check_intensity_interval(op, flops: Expr, bytes_expr: Expr,
                              domain: BindingDomain,
                              interval: Callable[[Expr], Interval]
                              ) -> List[Diagnostic]:
    """I003: lb(flops) > ub(bytes)·ub(cap) refutes the bound everywhere."""
    tensors = tuple(op.inputs) + tuple(op.outputs)
    if not tensors:
        return []
    f_iv = interval(flops)
    if f_iv.lo <= 0.0:
        return []
    by_iv = interval(bytes_expr)
    cap_iv: Optional[Interval] = None
    for t in tensors:
        t_iv = interval(t.num_elements())
        cap_iv = t_iv if cap_iv is None else cap_iv.max_(t_iv)
    bound = by_iv.mul(cap_iv)
    bound_hi = bound.hi
    if f_iv.lo > bound_hi:
        record_outcome("refuted")
        return [Diagnostic(
            "I003",
            f"op {op.name} ({op.kind}) operational intensity exceeds "
            f"its largest tensor's element count over the entire "
            f"declared domain (FLOPs ≥ {f_iv.lo:g}, bytes·cap ≤ "
            f"{bound_hi:g})",
            obj=op.name,
            data={"proof": {
                "method": "interval",
                "domain": domain.to_dict(),
                "flops_lo": f_iv.lo,
                "bytes_cap_hi": bound_hi,
            }},
        )]
    # compliance proof: the largest possible intensity still under the
    # smallest possible bound anywhere in the domain
    record_outcome("proved" if f_iv.hi <= bound.lo else "fallback")
    return []


def interval_diagnostics(graph: Graph,
                         domain: Optional[BindingDomain] = None
                         ) -> List[Diagnostic]:
    """Run the I-family rules over every op of ``graph``.

    Each op class is checked once through its representative; only a
    class with findings is re-checked op by op.
    """
    if domain is None:
        domain = BindingDomain({})
    # formulas and tensor sizes recur across ops and rules: bound each
    # distinct expression once per pass
    intervals: Dict[Expr, Interval] = {}

    def interval(expr: Expr) -> Interval:
        iv = intervals.get(expr)
        if iv is None:
            iv = intervals[expr] = interval_of_expr(expr, domain)
        return iv

    def check(op) -> List[Diagnostic]:
        flops = op.flops()
        bytes_expr = op.bytes_accessed()
        return (_check_formula(op, "FLOP", flops, domain, interval)
                + _check_formula(op, "bytes", bytes_expr, domain, interval)
                + _check_intensity_interval(op, flops, bytes_expr,
                                            domain, interval))

    out = per_op_findings(graph, check)
    for d in out:
        d.graph = graph.name
    return out
