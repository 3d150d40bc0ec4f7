"""Cost-formula dimensional analysis: lint the FLOP/byte algebra.

The per-op algorithmic formulas (``Op.flops`` / ``Op.bytes_accessed``)
are the quantities every downstream number in the reproduction rests
on.  This pass checks each formula *symbolically* against the op's own
tensor shapes via :mod:`repro.symbolic.poly` — no executor run needed:

* **C001** — an op that materializes outputs must access at least the
  bytes it writes (``bytes ≥ Σ output sizes``); view ops opt out via
  the declared ``cost_writes_outputs`` metadata.
* **C002** — bytes may not exceed ``cost_bytes_passes`` passes over
  inputs+outputs (algorithmic counts ignore cache effects, so traffic
  beyond the declared number of operand passes is a formula bug).
* **C003** — the FLOP formula's degree in each size symbol must not
  exceed the op's declared ``cost_degree`` (or, by default, the
  largest per-symbol degree among its tensor element counts): FLOPs
  growing faster than any tensor the op touches is a regression.
* **C004** — matmul FLOPs must be exactly the degree-3 product term
  ``2·m·k·n`` recomputed independently from operand shapes and
  transpose flags.
* **C005** — operational intensity sanity at probe bindings: an op
  with FLOPs must touch memory, and FLOPs/byte may not exceed the
  element count of its largest tensor.

Symbolic checks decide most cases outright (posynomial coefficient
inspection); indeterminate signs fall back to numeric probes at
deterministic positive bindings, and a violation is only reported with
a concrete witness binding.

Since the absint engine landed, C003 and C005 are *proof-first*: the
posynomial degree/coefficient arguments decide over all positive
bindings at once, findings carry a ``data["proof"]`` payload naming
the method, and the probe loops remain only as the fallback oracle for
non-posynomial fragments (every outcome ticks the
``check.absint.proved/fallback/refuted`` counters).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from ..graph.graph import Graph
from ..graph.op import Op
from ..symbolic import Expr, Symbol
from ..symbolic.poly import degrees, nonnegative
from .absint import record_outcome
from .diagnostics import Diagnostic, per_op_findings

__all__ = ["cost_diagnostics", "probe_bindings"]

#: deterministic probe values — distinct primes stagger the symbols so
#: coincidental cancellations at equal values cannot mask a violation
_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31)
_REL_TOL = 1e-6
_MATMUL_KINDS = ("matmul", "batch_matmul")


def probe_bindings(symbols) -> List[Dict[str, float]]:
    """Positive probe bindings for a symbol set (name-keyed, sorted)."""
    names = sorted(s.name for s in symbols)
    uniform = {n: 6.0 for n in names}
    staggered = {
        n: float(_PRIMES[i % len(_PRIMES)]) for i, n in enumerate(names)
    }
    large = {n: 48.0 for n in names}
    return [uniform, staggered, large]


def _probe_values(expr: Expr,
                  probes: List[Dict[str, float]]) -> List[float]:
    return [expr.evalf(p) for p in probes]


def _binding_repr(binding: Dict[str, float]) -> str:
    return ", ".join(f"{k}={v:g}" for k, v in sorted(binding.items()))


class _OpCosts:
    """Cached formulas and probe evaluations for one op."""

    def __init__(self, op: Op, probes: List[Dict[str, float]]):
        self.op = op
        self.flops = op.flops()
        self.bytes = op.bytes_accessed()
        self.out_bytes = _total_size(op.outputs)
        self.operand_bytes = _total_size(op.inputs) + self.out_bytes
        self.probes = probes
        self.flops_at = _probe_values(self.flops, probes)
        self.bytes_at = _probe_values(self.bytes, probes)
        self.out_bytes_at = _probe_values(self.out_bytes, probes)
        self.operand_bytes_at = _probe_values(self.operand_bytes, probes)


def _total_size(tensors) -> Expr:
    total: Expr = None
    for t in tensors:
        total = t.size_bytes() if total is None else total + t.size_bytes()
    from ..symbolic import Const

    return total if total is not None else Const(0)


def _lower_bound_violation(value: Expr, bound: Expr,
                           value_at: List[float], bound_at: List[float],
                           probes: List[Dict[str, float]]
                           ) -> Optional[Tuple[int, float, float]]:
    """Check ``value ≥ bound``: symbolic proof first, probes second.

    Returns None when satisfied, else ``(probe index, value, bound)``
    for the witness binding (symbolically-proven violations use the
    first probe as the illustrating witness).
    """
    verdict = nonnegative(value - bound)
    if verdict is True:
        return None
    for i, (v, b) in enumerate(zip(value_at, bound_at)):
        if v < b * (1.0 - _REL_TOL) - _REL_TOL:
            return (i, v, b)
    return None


def cost_diagnostics(graph: Graph) -> List[Diagnostic]:
    """Run the C-family rules over every op of ``graph``.

    Each op class is checked once through its representative; only a
    class with findings is re-checked op by op.
    """
    probes = probe_bindings(graph.free_symbols())
    elem_degrees: Dict[object, Optional[Dict[Symbol, object]]] = {}

    def check(op: Op) -> List[Diagnostic]:
        costs = _OpCosts(op, probes)
        return (_check_byte_bounds(costs)
                + _check_flops_degree(costs, elem_degrees)
                + _check_matmul_form(costs)
                + _check_intensity(costs))

    out = per_op_findings(graph, check)
    for d in out:
        d.graph = graph.name
    return out


def _check_byte_bounds(costs: _OpCosts) -> List[Diagnostic]:
    op, graph_name = costs.op, ""
    out = []
    if op.cost_writes_outputs and op.outputs:
        witness = _lower_bound_violation(
            costs.bytes, costs.out_bytes,
            costs.bytes_at, costs.out_bytes_at, costs.probes,
        )
        if witness is not None:
            i, v, b = witness
            out.append(Diagnostic(
                "C001",
                f"op {op.name} ({op.kind}) accesses {v:g} bytes at "
                f"[{_binding_repr(costs.probes[i])}] but must write "
                f"{b:g} bytes of outputs",
                graph=graph_name, obj=op.name,
            ))
    passes = op.cost_bytes_passes
    witness = _lower_bound_violation(
        costs.operand_bytes * passes, costs.bytes,
        [v * passes for v in costs.operand_bytes_at],
        costs.bytes_at, costs.probes,
    )
    if witness is not None:
        i, bound, v = witness
        out.append(Diagnostic(
            "C002",
            f"op {op.name} ({op.kind}) accesses {v:g} bytes at "
            f"[{_binding_repr(costs.probes[i])}], above {passes} "
            f"pass(es) over its operands ({bound:g} bytes)",
            graph=graph_name, obj=op.name,
        ))
    return out


def _tensor_degree_cap(op: Op, elem_degrees: Dict) -> Optional[Dict]:
    """Per-symbol cap: max element-count degree over the op's tensors.

    Returns None when any tensor's element count is non-posynomial
    (numeric fallback handles the op instead).
    """
    cap: Dict[Symbol, object] = {}
    for t in tuple(op.inputs) + tuple(op.outputs):
        if t not in elem_degrees:
            try:
                elem_degrees[t] = degrees(t.num_elements())
            except ValueError:
                elem_degrees[t] = None
        tdeg = elem_degrees[t]
        if tdeg is None:
            return None
        for sym, d in tdeg.items():
            if d > cap.get(sym, 0):
                cap[sym] = d
    return cap


def _check_flops_degree(costs: _OpCosts, elem_degrees: Dict
                        ) -> List[Diagnostic]:
    op, graph_name = costs.op, ""
    declared = op.cost_degree

    try:
        flops_deg = degrees(costs.flops)
    except ValueError:
        flops_deg = None

    if flops_deg is not None:
        if declared is not None:
            caps = {sym: declared for sym in flops_deg}
        else:
            caps = _tensor_degree_cap(op, elem_degrees)
        if caps is not None:
            for sym, d in flops_deg.items():
                cap = caps.get(sym, 0)
                if d > cap:
                    # posynomial degrees are global facts: the bound is
                    # exceeded at every sufficiently large binding, not
                    # just a probe sample
                    record_outcome("refuted")
                    return [Diagnostic(
                        "C003",
                        f"op {op.name} ({op.kind}) FLOPs grow as "
                        f"{sym.name}^{d}, above the "
                        f"{'declared' if declared is not None else 'tensor'}"
                        f" degree cap {cap}",
                        graph=graph_name, obj=op.name,
                        data={"proof": {
                            "method": "poly-degree",
                            "symbol": sym.name,
                            "degree": float(d),
                            "cap": float(cap),
                        }},
                    )]
            record_outcome("proved")
            return []
        # symbolic flops but non-posynomial tensor sizes: fall through

    record_outcome("fallback")
    return _numeric_degree_check(costs, declared)


def _numeric_degree_check(costs: _OpCosts,
                          declared: Optional[int]) -> List[Diagnostic]:
    """Estimate per-symbol growth by doubling one symbol at a time."""
    op, graph_name = costs.op, ""
    base = costs.probes[0]
    syms = sorted(s.name for s in costs.flops.free_symbols())
    if not syms:
        return []
    f0 = costs.flops_at[0]
    if f0 <= 0:
        return []
    for name in syms:
        doubled = dict(base)
        doubled[name] = base[name] * 2.0
        f1 = costs.flops.evalf(doubled)
        est = math.log2(f1 / f0) if f1 > 0 else 0.0
        cap = declared
        if cap is None:
            cap = max(
                (_numeric_elements_degree(t, base, name)
                 for t in tuple(op.inputs) + tuple(op.outputs)),
                default=0.0,
            )
        if est > cap + 0.25:
            return [Diagnostic(
                "C003",
                f"op {op.name} ({op.kind}) FLOPs grow as "
                f"{name}^{est:.2f} at probe bindings, above the degree "
                f"cap {cap}",
                graph=graph_name, obj=op.name,
            )]
    return []


def _numeric_elements_degree(t, base: Dict[str, float],
                             name: str) -> float:
    elements = t.num_elements()
    if name not in {s.name for s in elements.free_symbols()}:
        return 0.0
    e0 = elements.evalf(base)
    if e0 <= 0:
        return 0.0
    doubled = dict(base)
    doubled[name] = base[name] * 2.0
    e1 = elements.evalf(doubled)
    return math.log2(e1 / e0) if e1 > 0 else 0.0


def _check_matmul_form(costs: _OpCosts) -> List[Diagnostic]:
    """C004: recompute 2·(g·)m·k·n independently from operand shapes."""
    op = costs.op
    if op.kind not in _MATMUL_KINDS:
        return []
    from ..symbolic import Const
    from ..symbolic.poly import expand

    a, b = op.inputs
    ta = getattr(op, "transpose_a", False)
    tb = getattr(op, "transpose_b", False)
    if op.kind == "matmul":
        m, k = (a.shape[1], a.shape[0]) if ta else (a.shape[0], a.shape[1])
        n = b.shape[0] if tb else b.shape[1]
        expected = Const(2) * m * k * n
    else:
        g = a.shape[0]
        m, k = (a.shape[2], a.shape[1]) if ta else (a.shape[1], a.shape[2])
        n = b.shape[1] if tb else b.shape[2]
        expected = Const(2) * g * m * k * n
    if expand(costs.flops - expected) != Const(0):
        return [Diagnostic(
            "C004",
            f"op {op.name} ({op.kind}) FLOPs {costs.flops} differ from "
            f"the shape-derived product term {expected}",
            graph="", obj=op.name,
        )]
    return []


def _check_intensity(costs: _OpCosts) -> List[Diagnostic]:
    op, graph_name = costs.op, ""
    proven = _intensity_proof(costs)
    if proven is not None:
        return proven
    max_elements = [
        max((t.num_elements().evalf(p)
             for t in tuple(op.inputs) + tuple(op.outputs)), default=0.0)
        for p in costs.probes
    ]
    for i, (f, by, cap) in enumerate(zip(costs.flops_at, costs.bytes_at,
                                         max_elements)):
        if f <= _REL_TOL:
            continue
        if by <= _REL_TOL:
            return [Diagnostic(
                "C005",
                f"op {op.name} ({op.kind}) computes {f:g} FLOPs at "
                f"[{_binding_repr(costs.probes[i])}] while touching no "
                "memory",
                graph=graph_name, obj=op.name,
            )]
        intensity = f / by
        if intensity > cap * (1.0 + _REL_TOL):
            return [Diagnostic(
                "C005",
                f"op {op.name} ({op.kind}) operational intensity "
                f"{intensity:g} FLOPs/byte at "
                f"[{_binding_repr(costs.probes[i])}] exceeds its "
                f"largest tensor's element count {cap:g}",
                graph=graph_name, obj=op.name,
            )]
    return []


def _intensity_proof(costs: _OpCosts) -> Optional[List[Diagnostic]]:
    """Decide C005 by posynomial proof when the fragment allows.

    The bound is ``flops ≤ bytes · max_t elements(t)``.  Both sides
    are posynomials in the size symbols (the max handled by
    quantifying over the tensors), so coefficient inspection can
    decide the comparison for *all* positive bindings at once:

    * compliance — some tensor ``t`` has
      ``bytes·elements(t) − flops ≥ 0``: intensity never exceeds that
      tensor's element count, which the cap dominates;
    * violation — ``flops − bytes·elements(t) ≥ 0`` for *every*
      tensor: intensity meets-or-beats the cap everywhere, and a probe
      supplies the strictness witness.

    Returns the diagnostics to report (possibly empty = proven clean),
    or None to fall back to the probe loop.
    """
    op, graph_name = costs.op, ""
    tensors = tuple(op.inputs) + tuple(op.outputs)
    if not tensors or nonnegative(costs.flops) is not True:
        record_outcome("fallback")
        return None

    for t in tensors:
        if nonnegative(costs.bytes * t.num_elements()
                       - costs.flops) is True:
            record_outcome("proved")
            return []

    if all(nonnegative(costs.flops - costs.bytes * t.num_elements())
           is True for t in tensors):
        # ≥ holds everywhere; a strict probe turns it into a violation
        for i, (f, by) in enumerate(zip(costs.flops_at, costs.bytes_at)):
            if f <= _REL_TOL:
                continue
            proof = {
                "method": "posynomial-bound",
                "comparison": "flops >= bytes * elements(t) for every "
                              "tensor t, over all positive bindings",
                "witness": dict(costs.probes[i]),
            }
            if by <= _REL_TOL:
                record_outcome("refuted")
                return [Diagnostic(
                    "C005",
                    f"op {op.name} ({op.kind}) computes {f:g} FLOPs "
                    f"at [{_binding_repr(costs.probes[i])}] while "
                    "touching no memory (proven for the whole "
                    "positive domain)",
                    graph=graph_name, obj=op.name,
                    data={"proof": proof},
                )]
            cap = max((t.num_elements().evalf(costs.probes[i])
                       for t in tensors), default=0.0)
            if f / by > cap * (1.0 + _REL_TOL):
                record_outcome("refuted")
                return [Diagnostic(
                    "C005",
                    f"op {op.name} ({op.kind}) operational intensity "
                    f"{f / by:g} FLOPs/byte exceeds its largest "
                    f"tensor's element count {cap:g} over the whole "
                    f"positive domain (witness "
                    f"[{_binding_repr(costs.probes[i])}])",
                    graph=graph_name, obj=op.name,
                    data={"proof": proof},
                )]

    record_outcome("fallback")
    return None


