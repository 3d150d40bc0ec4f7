"""Diagnostic records, the rule registry, and select/ignore filtering.

Every lint finding is a :class:`Diagnostic` carrying a *stable rule
code* (``G001``, ``C003`` …) so findings can be filtered, suppressed
per graph, and gated in CI without string-matching messages.  Rule
codes are grouped by pass family:

* ``S***`` — structural invariants (former ``validate_graph`` checks)
* ``G***`` — graph dataflow lint
* ``C***`` — cost-formula dimensional analysis
* ``A***`` — autodiff consistency
* ``T***`` — compiled-tape verification
* ``I***`` — interval proofs over declared binding domains (absint)
* ``M***`` — solver monotonicity preconditions (absint)
* ``X***`` — exec task-list lint (static, pre-dispatch)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Callable, Dict, Iterable, List,
                    Optional, Sequence)

from ..errors import BindingError, did_you_mean

if TYPE_CHECKING:  # pragma: no cover
    from ..graph.graph import Graph
    from ..graph.op import Op

__all__ = [
    "ERROR",
    "WARNING",
    "INFO",
    "SEVERITY_RANK",
    "Rule",
    "RULES",
    "Diagnostic",
    "GRAPH_FAMILIES",
    "check_lint_filter",
    "check_rule_codes",
    "family_passes",
    "filter_diagnostics",
    "max_severity",
    "per_op_findings",
]

ERROR = "error"
WARNING = "warning"
INFO = "info"

#: rank for sorting (most severe first) and gating
SEVERITY_RANK = {ERROR: 0, WARNING: 1, INFO: 2}


@dataclass(frozen=True)
class Rule:
    """One lint rule: stable code, default severity, description."""

    code: str
    name: str
    severity: str
    description: str


_RULE_DEFS = [
    # -- structural (folded in from graph/validate.py) -------------------
    Rule("S001", "orphan-tensor", ERROR,
         "a non-input, non-parameter tensor has no producer op"),
    Rule("S002", "edge-mismatch", ERROR,
         "an op's input list disagrees with tensor consumer "
         "registrations (one finding per broken op/tensor, both "
         "directions merged)"),
    Rule("S003", "op-invariant", ERROR,
         "an op's own validate() shape rule failed"),
    Rule("S004", "cycle", ERROR,
         "an op reads a tensor whose producer is not earlier in the "
         "op list (a cycle, or ops rewired out of order)"),
    Rule("S005", "unconsumed-tensor", WARNING,
         "a produced tensor is never consumed (strict mode only)"),
    # -- graph dataflow lint --------------------------------------------
    Rule("G001", "dead-op", WARNING,
         "op is not needed by the loss or by any weight update"),
    Rule("G002", "dead-tensor", WARNING,
         "tensor is produced but read by no op and is not the loss"),
    Rule("G003", "param-never-updated", ERROR,
         "a loss-reachable trainable parameter is read by no "
         "optimizer op although the graph contains weight updates"),
    # -- cost-formula dimensional analysis ------------------------------
    Rule("C001", "bytes-write-lower-bound", ERROR,
         "algorithmic bytes are below the bytes of the outputs the op "
         "must write"),
    Rule("C002", "bytes-operand-upper-bound", WARNING,
         "algorithmic bytes exceed the declared number of passes over "
         "the op's operands"),
    Rule("C003", "flops-degree-anomaly", ERROR,
         "the FLOP formula grows faster in a size symbol than the "
         "op's tensors (or its declared cost degree) allow"),
    Rule("C004", "matmul-flops-form", ERROR,
         "a matmul's FLOPs differ from the degree-3 product term "
         "2·m·k·n recomputed from its operand shapes"),
    Rule("C005", "intensity-bounds", WARNING,
         "operational intensity (FLOPs/byte) is outside sane bounds "
         "at probe bindings"),
    # -- autodiff consistency -------------------------------------------
    Rule("A001", "grad-shape-mismatch", ERROR,
         "a parameter's gradient tensor has a different symbolic "
         "shape than the parameter"),
    Rule("A002", "missing-gradient", ERROR,
         "a loss-reachable trainable parameter has no gradient tensor "
         "in the training graph"),
    Rule("A003", "grad-dtype-mismatch", WARNING,
         "a gradient tensor's dtype width differs from its "
         "parameter's"),
    # -- compiled-tape verification -------------------------------------
    Rule("T001", "slot-read-after-free", ERROR,
         "a tape instruction reads a slot outside its live range "
         "(before its single write, in SSA form)"),
    Rule("T002", "malformed-instruction", ERROR,
         "a tape instruction has an unknown opcode or malformed "
         "payload"),
    Rule("T003", "dead-instruction", WARNING,
         "a tape instruction's result is never read and is not an "
         "output (CSE regression)"),
    Rule("T004", "tape-tree-divergence", ERROR,
         "the compiled tape disagrees with the expression tree walk "
         "at a randomized binding"),
    # -- interval proofs over declared binding domains (absint) ---------
    Rule("I001", "interval-nonneg-refuted", ERROR,
         "interval analysis proves a cost formula can go negative "
         "somewhere inside the declared binding domain"),
    Rule("I002", "interval-overflow", WARNING,
         "interval analysis shows a cost formula can overflow or hit "
         "a float domain error inside the declared binding domain"),
    Rule("I003", "intensity-interval-refuted", WARNING,
         "interval analysis proves operational intensity exceeds its "
         "bound over the entire declared binding domain"),
    # -- solver monotonicity preconditions (absint) ---------------------
    Rule("M001", "bisection-precondition-unproved", ERROR,
         "the monotonicity precondition of a bisection-solved planner "
         "curve could not be proven over its bracket domain"),
    Rule("M002", "bisection-precondition-refuted", ERROR,
         "a planner curve is provably decreasing where the bisection "
         "solver requires a nondecreasing objective"),
    Rule("M003", "bracket-domain-mismatch", WARNING,
         "a solver bracket extends outside the curve's declared "
         "binding domain, so the monotonicity proof does not cover "
         "the whole search range"),
    # -- exec task-list lint (static, pre-dispatch) ---------------------
    Rule("X001", "store-key-collision", ERROR,
         "two distinct tasks declare the same result-store key, so "
         "one silently shadows the other in the content-addressed "
         "store"),
    Rule("X002", "output-path-race", ERROR,
         "two tasks declare the same output path (write race: final "
         "contents depend on scheduling order)"),
]

RULES: Dict[str, Rule] = {r.code: r for r in _RULE_DEFS}

#: the pass families a graph lint runs, one pass each, in run order
GRAPH_FAMILIES = ("S", "G", "C", "A", "T", "I")

#: where the families that are not graph passes run
_RUNS_ELSEWHERE = {
    "M": "only on a full-registry lint (no domain named)",
    "X": "only in the exec engine, over a task list before dispatch",
}


@dataclass
class Diagnostic:
    """One finding: rule code + severity + location + message."""

    code: str
    message: str
    graph: str = ""
    obj: str = ""  #: op/tensor/slot the finding is anchored to
    severity: str = ""
    data: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.code not in RULES:
            raise ValueError(f"unknown lint rule code {self.code!r}")
        if not self.severity:
            self.severity = RULES[self.code].severity
        if self.severity not in SEVERITY_RANK:
            raise ValueError(f"unknown severity {self.severity!r}")

    @property
    def rule(self) -> Rule:
        return RULES[self.code]

    def format(self) -> str:
        where = f"{self.graph}: " if self.graph else ""
        anchor = f" [{self.obj}]" if self.obj else ""
        return (f"{where}{self.code} {self.rule.name} "
                f"({self.severity}){anchor}: {self.message}")

    def to_dict(self) -> dict:
        out = {
            "code": self.code,
            "rule": self.rule.name,
            "severity": self.severity,
            "graph": self.graph,
            "obj": self.obj,
            "message": self.message,
        }
        if self.data:
            out["data"] = self.data
        return out


def _matches(code: str, patterns: Sequence[str]) -> bool:
    """Prefix matching: 'C' selects the family, 'C003' one rule."""
    return any(code.startswith(p) for p in patterns if p)


def check_rule_codes(codes: Optional[Sequence[str]],
                     option: str) -> None:
    """Reject a ``--select``/``--ignore`` code no registered rule has
    as a prefix (E-BIND): such a code silently matches nothing, so a
    typo would turn a gate into a no-op."""
    for code in codes or ():
        if not any(rule.startswith(code) for rule in RULES):
            raise BindingError(
                f"unknown rule code {code!r} in {option}",
                hint=did_you_mean(code.upper(),
                                  set(RULES) | {c[0] for c in RULES})
                or "list the registered rules with repro-lint "
                   "--list-rules",
            )


def _kept(code: str, select: Optional[Sequence[str]],
          ignore: Sequence[str], suppress: Sequence[str]) -> bool:
    if select is not None and not _matches(code, select):
        return False
    return not (_matches(code, ignore) or _matches(code, suppress))


def filter_diagnostics(
    diagnostics: Iterable[Diagnostic],
    *,
    select: Optional[Sequence[str]] = None,
    ignore: Sequence[str] = (),
    suppress: Sequence[str] = (),
) -> List[Diagnostic]:
    """Apply ``--select`` / ``--ignore`` / per-graph suppressions.

    ``select`` (when given) keeps only matching codes; ``ignore`` and
    ``suppress`` then drop matches.  All use prefix matching, so a
    family letter selects/ignores the whole pass family.  Results are
    sorted most-severe first, then by graph, code, and anchor.
    """
    out = [d for d in diagnostics
           if _kept(d.code, select, ignore, suppress)]
    out.sort(key=lambda d: (SEVERITY_RANK[d.severity], d.graph,
                            d.code, d.obj))
    return out


def family_passes(
    family: str,
    *,
    select: Optional[Sequence[str]] = None,
    ignore: Sequence[str] = (),
    suppress: Sequence[str] = (),
) -> bool:
    """Whether any registered rule of ``family`` (a code prefix, one
    letter per pass) can get past :func:`filter_diagnostics` with these
    filters.  Each pass emits only its own family's codes, so a pass
    whose family cannot get past adds nothing to the kept findings and
    need not run."""
    return any(code.startswith(family)
               and _kept(code, select, ignore, suppress)
               for code in RULES)


def check_lint_filter(select: Optional[Sequence[str]],
                      ignore: Sequence[str], *,
                      full_registry: bool) -> None:
    """Refuse (E-BIND) a ``select``/``ignore`` pair under which a
    registry lint runs no pass: its clean report would check nothing.

    A registry lint runs the :data:`GRAPH_FAMILIES` passes, plus the M
    family on a full-registry run (no domain named).
    """
    families = GRAPH_FAMILIES + (("M",) if full_registry else ())
    if any(family_passes(f, select=select, ignore=ignore)
           for f in families):
        return
    kept = sorted({code[0] for code in RULES
                   if _kept(code, select, ignore, ())})
    reason = ("; ".join(f"{f} runs {_RUNS_ELSEWHERE[f]}" for f in kept)
              if kept else "ignore drops every selected rule")
    raise BindingError(
        f"the rule filter leaves nothing to check: {reason}",
        hint=f"select one of the families {', '.join(families)}")


def max_severity(diagnostics: Iterable[Diagnostic]) -> Optional[str]:
    """Most severe level present, or None for an empty run."""
    best = None
    for d in diagnostics:
        if best is None or SEVERITY_RANK[d.severity] < SEVERITY_RANK[best]:
            best = d.severity
    return best


def per_op_findings(graph: "Graph",
                    check: Callable[["Op"], List[Diagnostic]]
                    ) -> List[Diagnostic]:
    """``check`` over every op of ``graph``, run once per op class.

    Per-op rules that read only what an op class shares (its cost
    formulas, declared cost metadata and tensor geometry) clear a
    whole class through its representative.  A class with any finding
    is re-checked op by op, so each diagnostic names its own op and
    the list stays in op order.
    """
    failing = graph.per_op(lambda rep: bool(check(rep)))
    out: List[Diagnostic] = []
    for op, fails in zip(graph.ops, failing):
        if fails:
            out.extend(check(op))
    return out
