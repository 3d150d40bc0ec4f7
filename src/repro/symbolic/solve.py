"""Numeric solving helpers for the scaling-law layer.

The projection math in the paper reduces to inverting power laws
(``ε = α m**β  ⇒  m = (ε/α)**(1/β)``) and to one-dimensional root
finding on monotone expressions (e.g. "smallest subbatch whose
graph-level operational intensity reaches the accelerator ridge
point").  Both live here so the scaling and planner layers stay free of
numerics.

:func:`bisect_increasing` has one bracket policy: its answer stays in
the bracket it is given, and a target outside the bracket's range
yields the nearer end.  :func:`expand_bracket` (grow a bracket until it
straddles a target) has no caller in the pipeline; it stays because
``e2ebench/layers.py`` times it by name.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, Mapping

from ..deadline import check_deadline
from ..errors import SolveError
from ..obs.metrics import counter as _obs_counter
from ..obs.metrics import histogram as _obs_histogram
from .compile import compile_expr
from .expr import Expr, Symbol

__all__ = ["invert_power_law", "power_law", "bisect_increasing",
           "expand_bracket", "evalf_fn"]

# Root-finding observability: the planner's subbatch choices each run
# several bisections; the histogram answers "how many probes does a
# choice cost" without tracing.
_BISECT_CALLS = _obs_counter("symbolic.bisect.calls")
_BISECT_ITERS = _obs_counter("symbolic.bisect.iterations")
_BISECT_HIST = _obs_histogram("symbolic.bisect.iterations_per_call")
_EXPANSIONS = _obs_counter("symbolic.bisect.bracket_expansions")
_GUARD_NONFINITE = _obs_counter("guard.numeric.solver_nonfinite")


def power_law(scale: float, exponent: float, x: float) -> float:
    """Evaluate ``scale * x**exponent``."""
    if x <= 0:
        raise SolveError(
            f"power law argument must be positive, got {x}",
            hint="model sizes / dataset sizes enter power laws as "
                 "positive reals",
        )
    return scale * x**exponent


def invert_power_law(scale: float, exponent: float, target: float) -> float:
    """Solve ``target = scale * x**exponent`` for ``x``.

    Works for negative exponents (learning curves, β ∈ [−0.5, 0)) and
    positive exponents (model-size curves, β ∈ [0.5, 1)).  Raises a
    clear :class:`~repro.errors.SolveError` (also a ``ValueError``)
    when the solution exceeds the float range — e.g. asking a
    nearly-flat learning curve (β ≈ 0) for a large error reduction can
    demand more samples than 10^308.
    """
    if scale <= 0 or target <= 0:
        raise SolveError(
            "power-law inversion needs positive scale and target",
            diagnostics={"scale": scale, "target": target},
        )
    if exponent == 0:
        raise SolveError("cannot invert a constant power law (exponent 0)")
    log_x = math.log(target / scale) / exponent
    if log_x > math.log(sys.float_info.max):
        raise SolveError(
            f"power-law solution exp({log_x:.1f}) exceeds the float "
            "range; the target is unreachable at this exponent",
            diagnostics={"log_x": round(log_x, 1),
                         "exponent": exponent, "target": target},
            hint="pick a less aggressive accuracy target or a steeper "
                 "learning-curve exponent",
        )
    return math.exp(log_x)


def evalf_fn(expr: Expr, sym: Symbol,
             fixed: Mapping = None) -> Callable[[float], float]:
    """Compile an Expr into a float function of one symbol.

    ``fixed`` supplies bindings for every other free symbol.  The
    expression is lowered once to a slot-based tape
    (:mod:`repro.symbolic.compile`); ``fixed`` is resolved to the input
    vector here, so each call only writes one slot and replays the tape
    — no per-call dict rebuilding inside root-finding loops.
    """
    program = compile_expr(expr)
    base = program.bind_vector(fixed or {}, partial=True)
    try:
        slot = program.slot_of(sym)
    except KeyError:
        # ``expr`` is constant in ``sym``; evaluation stays deferred so
        # unbound-symbol errors still surface on call, like the
        # tree-walk closure did.
        def fn_const(x: float) -> float:
            return program.eval_vector(base)

        return fn_const

    def fn(x: float) -> float:
        base[slot] = float(x)
        return program.eval_vector(base)

    return fn


def _checked(fn: Callable[[float], float], x: float) -> float:
    """Probe ``fn`` and guard the result against NaN (E-SOLVE)."""
    value = float(fn(x))
    if math.isnan(value):
        _GUARD_NONFINITE.inc()
        raise SolveError(
            f"objective returned NaN at x={x:g}; the bracket leaves "
            "the function's domain",
            diagnostics={"x": x},
            hint="shrink the bracket to the region where the curve is "
                 "defined, or check the bindings feeding it",
        )
    return value


def expand_bracket(fn: Callable[[float], float], target: float,
                   lo: float, hi: float, *, factor: float = 2.0,
                   max_expansions: int = 60):
    """Grow ``[lo, hi]`` geometrically until it brackets ``target``.

    ``fn`` must be nondecreasing.  ``hi`` doubles while
    ``fn(hi) < target``; ``lo`` halves toward 0 (these solvers operate
    on positive axes — subbatch sizes, model sizes) while
    ``fn(lo) > target``.  Returns the bracketing ``(lo, hi)``; raises
    :class:`~repro.errors.SolveError` with convergence diagnostics
    when the expansion budget runs out (an unreachable target).
    """
    expansions = 0
    flo, fhi = _checked(fn, lo), _checked(fn, hi)
    while fhi < target and expansions < max_expansions:
        check_deadline("expand_bracket", expansions=expansions)
        expansions += 1
        _EXPANSIONS.inc()
        hi *= factor
        if not math.isfinite(hi):
            break
        fhi = _checked(fn, hi)
    while flo > target and expansions < max_expansions:
        expansions += 1
        _EXPANSIONS.inc()
        lo /= factor
        if lo == 0.0:
            break
        flo = _checked(fn, lo)
    if flo > target or fhi < target:
        raise SolveError(
            f"cannot bracket target {target:g}: after {expansions} "
            f"expansion(s) f({lo:g})={flo:g}, f({hi:g})={fhi:g}",
            diagnostics={"target": target, "lo": lo, "hi": hi,
                         "f_lo": flo, "f_hi": fhi,
                         "expansions": expansions},
            hint="the target lies outside the function's range — it "
                 "saturates before reaching it; lower the target or "
                 "check the curve's coefficients",
        )
    return lo, hi


def bisect_increasing(fn: Callable[[float], float], target: float,
                      lo: float, hi: float, *, tol: float = 1e-9,
                      max_iter: int = 200) -> float:
    """Find x in [lo, hi] with fn(x) == target for nondecreasing ``fn``.

    The answer always lies in ``[lo, hi]``: when the target falls
    outside ``[fn(lo), fn(hi)]`` the bracket end is returned (``hi``
    when even ``fn(hi) < target``, ``lo`` when ``fn(lo) > target``), so
    a caller that must tell a root from a clamp compares ``fn`` at the
    end against the target itself.  A bisection that exhausts
    ``max_iter`` returns the midpoint of what is left.  NaN probes
    raise :class:`~repro.errors.SolveError` (E-SOLVE).  Used e.g. to
    find the subbatch size where operational intensity crosses the
    accelerator ridge point.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)
            and math.isfinite(target)):
        raise SolveError(
            f"bracket/target must be finite, got [{lo}, {hi}] -> "
            f"{target}",
            diagnostics={"lo": lo, "hi": hi, "target": target},
        )
    if lo > hi:
        raise SolveError(
            f"empty bracket [{lo}, {hi}]",
            hint="pass lo <= hi (the bracket endpoints are swapped?)",
        )
    _BISECT_CALLS.inc()
    iterations = 0
    try:
        flo, fhi = _checked(fn, lo), _checked(fn, hi)
        if flo >= target:
            return lo
        if fhi <= target:
            return hi
        for _ in range(max_iter):
            check_deadline("bisect", iterations=iterations,
                           target=target)
            iterations += 1
            mid = 0.5 * (lo + hi)
            fmid = _checked(fn, mid)
            if math.isclose(fmid, target, rel_tol=tol, abs_tol=tol):
                return mid
            if fmid < target:
                lo = mid
            else:
                hi = mid
            if hi - lo <= tol * max(1.0, abs(hi)):
                break
        return 0.5 * (lo + hi)
    finally:
        _BISECT_ITERS.inc(iterations)
        _BISECT_HIST.observe(iterations)
