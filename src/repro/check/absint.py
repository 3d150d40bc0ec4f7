"""Abstract interpretation over exprs and tapes: intervals, signs,
monotonicity.

The probe-based cost lint (C003 doubling, C005 staggered primes) and
the runtime numeric guards both answer point questions: *at this
binding*, is the formula sane?  This module answers the quantified
version — *over the whole declared domain*, can the formula go
negative, overflow, or lose the monotonicity the bisection solver
assumes? — by evaluating programs over abstract values instead of
floats:

* **interval domain** — every symbol carries a closed range
  (:class:`BindingDomain`); every tape instruction gets a transfer
  function mapping operand intervals to a result interval.  The
  transfer functions apply the *same float operations in the same
  order* as the concrete replay to the bounding endpoints, so
  round-to-nearest monotonicity makes the bounds sound at float
  precision, not just over the reals.
* **sign domain** — a projection of the interval lattice
  (:func:`sign_of`), sharpened for the posynomial fragment where
  :func:`repro.symbolic.poly.nonnegative` proves signs coefficient-
  wise.
* **monotonicity domain** — verdicts in {constant, nondecreasing,
  nonincreasing, unknown} derived from structural rules plus a
  *log-elasticity* analysis: for a product/ratio of posynomials,
  ``d ln f / d ln s`` is bounded by interval arithmetic over the
  per-factor degree ranges, which is dependency-free where a naive
  interval derivative is not (it proves ``b·√p/(c1·√p + c2·b)``
  nondecreasing in ``b``, the planner's bisection precondition).

Every proof attempt records its outcome in the always-on metrics
(``check.absint.proved`` / ``fallback`` / ``refuted``), so
``repro-obs diff`` tracks proof coverage across runs.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from ..obs.metrics import counter as _obs_counter
from ..symbolic.compile import CompiledExpr, compile_expr
from ..symbolic.expr import (
    Add,
    Ceil,
    Const,
    Expr,
    Floor,
    Log,
    Max,
    Min,
    Mul,
    Pow,
    Symbol,
)
from ..symbolic.poly import nonnegative

__all__ = [
    "Interval",
    "BindingDomain",
    "DEFAULT_RANGE",
    "interval_of_expr",
    "interval_of_tape",
    "sign_of",
    "elasticity",
    "monotonicity",
    "probe_monotonicity",
    "CONSTANT",
    "NONDECREASING",
    "NONINCREASING",
    "UNKNOWN",
    "record_outcome",
]

#: proof-coverage metrics: one tick per discharged proof obligation
_PROVED = _obs_counter("check.absint.proved")
_FALLBACK = _obs_counter("check.absint.fallback")
_REFUTED = _obs_counter("check.absint.refuted")

_INF = math.inf

#: default declared range for a symbol nobody bounded explicitly — all
#: symbols denote positive dimensions, and no stock sweep exceeds 2^16
DEFAULT_RANGE = (1.0, 65536.0)


def record_outcome(outcome: str) -> None:
    """Count one proof obligation's outcome (proved/fallback/refuted)."""
    {"proved": _PROVED, "fallback": _FALLBACK,
     "refuted": _REFUTED}[outcome].inc()


# -- the interval domain ----------------------------------------------------

def _ext_mul(a: float, b: float) -> float:
    """Extended-real product with the interval convention 0·∞ = 0.

    ``{x·y : x ∈ A, y ∈ B}`` never contains an indeterminate form for
    real intervals — a zero endpoint means the zero *value* is attained
    — so the IEEE ``0·inf = nan`` corner must be overridden to keep the
    corner-product rule sound for half-open ranges.
    """
    if a == 0.0 or b == 0.0:
        return 0.0
    return a * b


class Interval:
    """A closed interval ``[lo, hi]`` over the extended reals.

    ``maybe_nan`` marks that a concrete evaluation *may* raise a domain
    error or produce NaN (log of a non-positive value, a negative base
    under a fractional exponent, ``0**negative``); the bounds then
    cover only the evaluations that return a real.
    """

    __slots__ = ("lo", "hi", "maybe_nan")

    def __init__(self, lo: float, hi: float, *, maybe_nan: bool = False):
        if math.isnan(lo) or math.isnan(hi):
            lo, hi, maybe_nan = -_INF, _INF, True
        if lo > hi:
            raise ValueError(f"empty interval [{lo!r}, {hi!r}]")
        self.lo = float(lo)
        self.hi = float(hi)
        self.maybe_nan = bool(maybe_nan)

    # -- constructors --------------------------------------------------
    @staticmethod
    def point(value: float) -> "Interval":
        return Interval(value, value)

    @staticmethod
    def top() -> "Interval":
        return Interval(-_INF, _INF, maybe_nan=True)

    # -- queries -------------------------------------------------------
    @property
    def finite(self) -> bool:
        """Finite bounds and no domain-error escape hatch."""
        return (not self.maybe_nan and math.isfinite(self.lo)
                and math.isfinite(self.hi))

    def contains(self, value: float, *, tol: float = 0.0) -> bool:
        if math.isnan(value):
            return self.maybe_nan
        span = max(abs(self.lo), abs(self.hi), 1.0)
        return (self.lo - tol * span <= value <= self.hi + tol * span)

    def hull(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi),
                        maybe_nan=self.maybe_nan or other.maybe_nan)

    # -- transfer functions --------------------------------------------
    def add(self, other: "Interval") -> "Interval":
        lo, hi = self.lo + other.lo, self.hi + other.hi
        nan = self.maybe_nan or other.maybe_nan
        if math.isnan(lo) or math.isnan(hi):  # inf + -inf
            return Interval(-_INF, _INF, maybe_nan=nan)
        return Interval(lo, hi, maybe_nan=nan)

    def scale(self, c: float) -> "Interval":
        a, b = _ext_mul(c, self.lo), _ext_mul(c, self.hi)
        return Interval(min(a, b), max(a, b), maybe_nan=self.maybe_nan)

    def shift(self, c: float) -> "Interval":
        return Interval(self.lo + c, self.hi + c, maybe_nan=self.maybe_nan)

    def mul(self, other: "Interval") -> "Interval":
        corners = [
            _ext_mul(a, b)
            for a in (self.lo, self.hi)
            for b in (other.lo, other.hi)
        ]
        return Interval(min(corners), max(corners),
                        maybe_nan=self.maybe_nan or other.maybe_nan)

    def neg(self) -> "Interval":
        return Interval(-self.hi, -self.lo, maybe_nan=self.maybe_nan)

    def max_(self, other: "Interval") -> "Interval":
        return Interval(max(self.lo, other.lo), max(self.hi, other.hi),
                        maybe_nan=self.maybe_nan or other.maybe_nan)

    def min_(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), min(self.hi, other.hi),
                        maybe_nan=self.maybe_nan or other.maybe_nan)

    def ceil(self) -> "Interval":
        # mirrors the concrete op exactly: float(math.ceil(x - 1e-12))
        return Interval(
            _safe_round(math.ceil, self.lo, -1e-12),
            _safe_round(math.ceil, self.hi, -1e-12),
            maybe_nan=self.maybe_nan,
        )

    def floor(self) -> "Interval":
        return Interval(
            _safe_round(math.floor, self.lo, 1e-12),
            _safe_round(math.floor, self.hi, 1e-12),
            maybe_nan=self.maybe_nan,
        )

    def log(self) -> "Interval":
        if self.hi <= 0.0:
            # every evaluation raises math domain error
            return Interval(-_INF, _INF, maybe_nan=True)
        nan = self.maybe_nan or self.lo <= 0.0
        lo = -_INF if self.lo <= 0.0 else math.log(self.lo)
        return Interval(lo, math.log(self.hi), maybe_nan=nan)

    def pow(self, exponent: "Interval") -> "Interval":
        """``{b**e}`` over the box; sound for positive bases.

        A base interval reaching ≤ 0 under a non-point-integer
        exponent can raise (or go complex) at runtime, so the result
        is flagged ``maybe_nan`` and widened to the nonnegative-base
        corner hull.
        """
        nan = self.maybe_nan or exponent.maybe_nan
        base_lo = self.lo
        if base_lo <= 0.0:
            point_int = (exponent.lo == exponent.hi
                         and float(exponent.lo).is_integer()
                         and math.isfinite(exponent.lo))
            if point_int:
                return self._pow_int(int(exponent.lo), nan)
            # negative/zero base under a range exponent: evaluations
            # with fractional exponents raise — bound what survives
            nan = True
            base_lo = 0.0
        corners: List[float] = []
        for b in (base_lo, self.hi):
            for e in (exponent.lo, exponent.hi):
                value, bad = _safe_pow(b, e)
                nan = nan or bad
                if value is not None:
                    corners.append(value)
        # x**e over a positive box is monotone in each coordinate with
        # the partner fixed, so extrema sit on corners; an interior
        # crossing of base == 1 only tightens toward 1, already covered
        if 1.0 >= base_lo and 1.0 <= self.hi:
            corners.append(1.0)
        if not corners:
            return Interval(-_INF, _INF, maybe_nan=True)
        return Interval(min(corners), max(corners), maybe_nan=nan)

    def _pow_int(self, n: int, nan: bool) -> "Interval":
        corners = []
        for b in (self.lo, self.hi):
            value, bad = _safe_pow(b, float(n))
            nan = nan or bad
            if value is not None:
                corners.append(value)
        if n % 2 == 0 and self.lo < 0.0 < self.hi:
            corners.append(0.0)  # even powers dip to zero inside
        if n < 0 and self.lo <= 0.0 <= self.hi:
            # a pole inside the interval: 1/x**|n| is unbounded
            return Interval(-_INF, _INF, maybe_nan=True)
        if not corners:
            return Interval(-_INF, _INF, maybe_nan=True)
        return Interval(min(corners), max(corners), maybe_nan=nan)

    def __repr__(self) -> str:
        tag = "?nan" if self.maybe_nan else ""
        return f"[{self.lo:g}, {self.hi:g}]{tag}"

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Interval) and self.lo == other.lo
                and self.hi == other.hi
                and self.maybe_nan == other.maybe_nan)

    def __hash__(self) -> int:
        return hash((self.lo, self.hi, self.maybe_nan))


def _safe_round(fn, x: float, eps: float) -> float:
    if not math.isfinite(x):
        return x
    return float(fn(x + eps))


def _safe_pow(b: float, e: float) -> Tuple[Optional[float], bool]:
    """``b**e`` on the extended reals: (value | None, raised-flag)."""
    try:
        return math.pow(b, e), False
    except OverflowError:
        # positive base overflow: +inf (negative bases with integer
        # exponents can overflow negative, sign by parity)
        if b < 0.0 and float(e).is_integer() and int(e) % 2:
            return -_INF, False
        return _INF, False
    except ValueError:
        return None, True


def sign_of(value: Union[Interval, Expr],
            domain: Optional["BindingDomain"] = None) -> str:
    """Sign-domain verdict: '+', '-', '0', or '±'.

    For an :class:`Expr`, the posynomial proof
    (:func:`repro.symbolic.poly.nonnegative`) is consulted first —
    coefficient signs decide without touching the domain — then the
    interval projection refines the rest.
    """
    if isinstance(value, Expr):
        if nonnegative(value) is True and nonnegative(-value) is True:
            return "0"
        interval = interval_of_expr(value, domain or BindingDomain({}))
        if nonnegative(value) is True:
            return "0" if interval.hi == 0.0 else "+"
        value = interval
    if value.maybe_nan:
        return "±"
    if value.lo == 0.0 and value.hi == 0.0:
        return "0"
    if value.lo >= 0.0:
        return "+"
    if value.hi <= 0.0:
        return "-"
    return "±"


# -- declared binding domains -----------------------------------------------

class BindingDomain:
    """Per-symbol declared ranges: the quantifier of every proof.

    Maps symbol names to :class:`Interval`\\ s.  Symbols absent from
    the mapping fall back to :data:`DEFAULT_RANGE` (all repro symbols
    are positive dimensions), so a domain is total by construction —
    an abstract run never fails on an unbound symbol, it just gets the
    declared default.
    """

    __slots__ = ("ranges", "default")

    def __init__(self, ranges: Mapping[str, Union[Interval, Tuple[float, float]]],
                 *, default: Tuple[float, float] = DEFAULT_RANGE):
        self.ranges: Dict[str, Interval] = {}
        for name, bounds in ranges.items():
            key = name.name if isinstance(name, Symbol) else str(name)
            self.ranges[key] = (bounds if isinstance(bounds, Interval)
                                else Interval(float(bounds[0]),
                                              float(bounds[1])))
        self.default = Interval(float(default[0]), float(default[1]))

    def get(self, name: Union[str, Symbol]) -> Interval:
        key = name.name if isinstance(name, Symbol) else name
        return self.ranges.get(key, self.default)

    def contains(self, bindings: Mapping, *, tol: float = 0.0) -> bool:
        """Is a concrete binding inside the declared box?"""
        for key, value in bindings.items():
            name = key.name if isinstance(key, Symbol) else str(key)
            if not self.get(name).contains(float(value), tol=tol):
                return False
        return True

    def sample(self, names: Iterable[str], *,
               points: int = 3) -> List[Dict[str, float]]:
        """Deterministic corner/midpoint grid over the named symbols."""
        names = sorted(set(names))
        grids: List[List[float]] = []
        for name in names:
            iv = self.get(name)
            lo = iv.lo if math.isfinite(iv.lo) else 1.0
            hi = iv.hi if math.isfinite(iv.hi) else lo * 1e6
            mid = math.sqrt(max(lo, 1e-300) * max(hi, 1e-300))
            grid = [lo, mid, hi][:points]
            grids.append(sorted(set(grid)))
        out: List[Dict[str, float]] = []
        # axis-aligned: every symbol at each grid point with the others
        # at their low corner, plus the all-high corner — O(3n) probes,
        # enough to witness monotone violations without a full lattice
        base = {n: g[0] for n, g in zip(names, grids)}
        out.append(dict(base))
        for i, name in enumerate(names):
            for value in grids[i][1:]:
                probe = dict(base)
                probe[name] = value
                out.append(probe)
        out.append({n: g[-1] for n, g in zip(names, grids)})
        seen, unique = set(), []
        for probe in out:
            key = tuple(sorted(probe.items()))
            if key not in seen:
                seen.add(key)
                unique.append(probe)
        return unique

    def to_dict(self) -> Dict[str, Tuple[float, float]]:
        """JSON-friendly form for diagnostic ``data`` payloads."""
        return {name: (iv.lo, iv.hi)
                for name, iv in sorted(self.ranges.items())}

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}={iv!r}"
                          for n, iv in sorted(self.ranges.items()))
        return f"BindingDomain({inner or 'default'})"


# -- abstract evaluation ----------------------------------------------------

def interval_of_tape(prog: CompiledExpr,
                     domain: BindingDomain) -> List[Interval]:
    """Abstract replay: one interval per slot, in tape order.

    Mirrors ``CompiledExpr._eval_vector`` instruction for instruction,
    accumulating in the same operand order so the float endpoints genuinely bound every
    concrete replay over the domain.
    """
    vals: List[Interval] = [Interval.point(0.0)] * len(prog.code)
    for i, (opcode, payload) in enumerate(prog.code):
        if opcode == 2:  # add
            const, terms = payload
            v = Interval.point(const)
            for slot, coeff in terms:
                v = v.add(vals[slot].scale(coeff))
        elif opcode == 3:  # mul
            coeff, factors = payload
            v = Interval.point(coeff)
            for base, exponent, is_one in factors:
                v = v.mul(vals[base] if is_one
                          else vals[base].pow(vals[exponent]))
        elif opcode == 1:  # sym
            v = prog_symbol_interval(prog, payload, domain)
        elif opcode == 0:  # const
            v = Interval.point(payload)
        elif opcode == 4:  # pow
            v = vals[payload[0]].pow(vals[payload[1]])
        elif opcode == 5:  # max
            v = vals[payload[0]]
            for s in payload[1:]:
                v = v.max_(vals[s])
        elif opcode == 6:  # min
            v = vals[payload[0]]
            for s in payload[1:]:
                v = v.min_(vals[s])
        elif opcode == 7:  # ceil
            v = vals[payload].ceil()
        elif opcode == 8:  # floor
            v = vals[payload].floor()
        elif opcode == 9:  # log
            v = vals[payload].log()
        else:
            v = Interval.top()
        vals[i] = v
    return vals


def prog_symbol_interval(prog: CompiledExpr, index: int,
                         domain: BindingDomain) -> Interval:
    return domain.get(prog.symbols[index].name)


def interval_of_expr(expr: Expr, domain: BindingDomain) -> Interval:
    """Interval of an expression over the domain.

    Compiles to a tape first (cached CSE, canonical operand order) and
    abstractly replays it, so the bounds agree with what the runtime
    engines actually compute — ``evalf`` and tape replay are
    bit-identical by contract.
    """
    prog = compile_expr(expr)
    return interval_of_tape(prog, domain)[prog.out_slots[0]]


# -- the monotonicity domain ------------------------------------------------

CONSTANT = "constant"
NONDECREASING = "nondecreasing"
NONINCREASING = "nonincreasing"
UNKNOWN = "unknown"


def _join(a: str, b: str) -> str:
    if a == CONSTANT:
        return b
    if b == CONSTANT or a == b:
        return a
    return UNKNOWN


def _flip(direction: str) -> str:
    if direction == NONDECREASING:
        return NONINCREASING
    if direction == NONINCREASING:
        return NONDECREASING
    return direction


def elasticity(expr: Expr, sym: Symbol,
               domain: BindingDomain) -> Optional[Interval]:
    """Bounds on ``d ln f / d ln s`` over the domain, or None.

    Defined for the positive generalized-posynomial fragment: sums
    with nonnegative constants/coefficients, products and powers with
    symbol-free exponents, max/min.  The elasticity of a positive sum
    is a convex combination of its terms' elasticities, so the hull of
    the term ranges bounds it without the interval-derivative
    dependency problem; a factor ``P**e`` contributes ``e`` times the
    base's range.  Returns None where the fragment (or positivity over
    the domain) fails — callers fall back to structural rules or
    probing.
    """
    if sym not in expr.free_symbols():
        return Interval.point(0.0)
    if isinstance(expr, Symbol):
        return Interval.point(1.0)
    if isinstance(expr, Add):
        if float(expr.const) < 0.0:
            return None
        hull: Optional[Interval] = (
            Interval.point(0.0) if float(expr.const) > 0.0 else None
        )
        for term, coeff in expr.terms:
            if float(coeff) <= 0.0:
                return None
            if interval_of_expr(term, domain).lo < 0.0:
                return None
            el = elasticity(term, sym, domain)
            if el is None:
                return None
            hull = el if hull is None else hull.hull(el)
        return hull
    if isinstance(expr, (Mul, Pow)):
        if isinstance(expr, Mul):
            if float(expr.coeff) <= 0.0:
                return None
            factors = expr.factors
        else:
            factors = ((expr.base, expr.exponent),)
        total = Interval.point(0.0)
        for base, exponent in factors:
            if sym in exponent.free_symbols():
                return None
            if interval_of_expr(base, domain).lo < 0.0:
                return None
            el = elasticity(base, sym, domain)
            if el is None:
                return None
            total = total.add(el.mul(interval_of_expr(exponent, domain)))
        return total
    if isinstance(expr, (Max, Min)):
        hull = None
        for arg in expr.fargs:
            if interval_of_expr(arg, domain).lo < 0.0:
                return None
            el = elasticity(arg, sym, domain)
            if el is None:
                return None
            hull = el if hull is None else hull.hull(el)
        return hull
    return None  # Log/Ceil/Floor: structural rules take over


def monotonicity(expr: Expr, sym: Symbol,
                 domain: BindingDomain) -> str:
    """Direction of ``expr`` in ``sym`` over the domain (weak sense).

    ``nondecreasing``/``nonincreasing`` are proofs; ``unknown`` is an
    honest "could not prove" — never a claim of non-monotonicity.
    """
    if sym not in expr.free_symbols():
        return CONSTANT
    el = elasticity(expr, sym, domain)
    if el is not None and not el.maybe_nan:
        if el.lo >= 0.0 and el.hi <= 0.0:
            return CONSTANT
        if el.lo >= 0.0:
            return NONDECREASING
        if el.hi <= 0.0:
            return NONINCREASING
    # structural composition rules for the non-elastic fragment
    if isinstance(expr, Add):
        verdict = CONSTANT
        for term, coeff in expr.terms:
            inner = monotonicity(term, sym, domain)
            if float(coeff) < 0.0:
                inner = _flip(inner)
            verdict = _join(verdict, inner)
            if verdict == UNKNOWN:
                return UNKNOWN
        return verdict
    if isinstance(expr, (Max, Min)):
        verdict = CONSTANT
        for arg in expr.fargs:
            verdict = _join(verdict, monotonicity(arg, sym, domain))
            if verdict == UNKNOWN:
                return UNKNOWN
        return verdict
    if isinstance(expr, (Ceil, Floor)):
        return monotonicity(expr.fargs[0], sym, domain)
    if isinstance(expr, Log):
        arg = expr.fargs[0]
        if interval_of_expr(arg, domain).lo > 0.0:
            return monotonicity(arg, sym, domain)
        return UNKNOWN
    if isinstance(expr, Pow):
        exponent = expr.exponent
        if (sym not in exponent.free_symbols()
                and isinstance(exponent, Const)):
            e = float(exponent.value)
            if interval_of_expr(expr.base, domain).lo >= 0.0:
                inner = monotonicity(expr.base, sym, domain)
                return inner if e >= 0.0 else _flip(inner)
        return UNKNOWN
    if isinstance(expr, Mul):
        # a product of same-direction nonnegative monotone factors
        coeff = float(expr.coeff)
        verdict = CONSTANT
        for base, exponent in expr.factors:
            if (sym in exponent.free_symbols()
                    or not isinstance(exponent, Const)):
                return UNKNOWN
            if interval_of_expr(base, domain).lo < 0.0:
                return UNKNOWN
            inner = monotonicity(base, sym, domain)
            e = float(exponent.value)
            if e < 0.0:
                inner = _flip(inner)
            verdict = _join(verdict, inner)
            if verdict == UNKNOWN:
                return UNKNOWN
        return _flip(verdict) if coeff < 0.0 else verdict
    return UNKNOWN


def probe_monotonicity(expr: Expr, sym: Symbol,
                       domain: BindingDomain, *,
                       points: int = 17) -> str:
    """Finite-difference oracle over a log-spaced grid (NOT a proof).

    The fallback when :func:`monotonicity` returns ``unknown``, and
    the reference the hypothesis soundness suite compares verdicts
    against.  Other symbols sit at the geometric midpoint of their
    declared range.
    """
    names = sorted(s.name for s in expr.free_symbols())
    base: Dict[str, float] = {}
    for name in names:
        iv = domain.get(name)
        lo = iv.lo if math.isfinite(iv.lo) else 1.0
        hi = iv.hi if math.isfinite(iv.hi) else lo * 1e6
        base[name] = math.sqrt(max(lo, 1e-300) * max(hi, 1e-300))
    iv = domain.get(sym.name)
    lo = max(iv.lo, 1e-300) if math.isfinite(iv.lo) else 1.0
    hi = iv.hi if math.isfinite(iv.hi) else lo * 1e6
    ratio = (hi / lo) ** (1.0 / max(points - 1, 1)) if hi > lo else 1.0
    values: List[float] = []
    for k in range(points):
        binding = dict(base)
        binding[sym.name] = lo * ratio ** k
        try:
            values.append(expr.evalf(binding))
        except (ValueError, OverflowError, ZeroDivisionError):
            return UNKNOWN
    tol = 1e-12 * max(max(abs(v) for v in values), 1.0)
    rising = any(b > a + tol for a, b in zip(values, values[1:]))
    falling = any(b < a - tol for a, b in zip(values, values[1:]))
    if rising and falling:
        return UNKNOWN
    if rising:
        return NONDECREASING
    if falling:
        return NONINCREASING
    return CONSTANT
