"""Subbatch-size selection (paper §5.2.1, Figure 11).

Three candidate operating points on the subbatch axis:

* **saturation** — graph-level operational intensity reaches 95% of
  its value at ``max_subbatch``, so the point moves with the cap (huge
  footprint, marginal time gains);
* **ridge match** — intensity equals the accelerator's effective ridge
  point (still leaves ~40% throughput on the table: many ops remain
  memory-bound);
* **min per-sample time** — the smallest subbatch whose training-step
  time per sample is within tolerance of the asymptotic best.  This is
  the paper's preferred point; for recurrent nets it lands ≈1.5× above
  the ridge-match subbatch.

All evaluations use the first-order forms ct = γ·b·p and
at = λ·p + µ·b·√p with the Roofline bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, List, Optional

import numpy as np

from .. import obs
from ..analysis.firstorder import FirstOrderModel
from ..deadline import check_deadline
from ..errors import BindingError, error_context
from ..hardware.accelerator import AcceleratorConfig
from ..symbolic import bisect_increasing

__all__ = ["SubbatchCurvePoint", "SubbatchChoice", "CompiledCurves",
           "subbatch_curve", "choose_subbatch", "compile_curves",
           "SymbolicCurve", "symbolic_curves", "SOLVE_BRACKET"]

#: subbatch sizes are chosen on a multiple-of-32 grid (warp-friendly)
_GRID = 32

_CHOICES = obs.counter("planner.subbatch.choices")
_CURVES = obs.counter("planner.subbatch.curves_compiled")
_CURVE_HITS = obs.counter("planner.subbatch.curves_cache_hit")
#: bisection probes consumed per choose_subbatch call (three root
#: findings: ridge crossing, saturation, min-latency)
_CHOICE_ITERS = obs.histogram("planner.subbatch.bisect_iterations")
_BISECT_ITERS = obs.counter("symbolic.bisect.iterations")


@dataclass
class CompiledCurves:
    """First-order curves specialized to one (params, accelerator) pair.

    ``model.intensity``/``roofline_time`` re-derive ``√p`` and the
    coefficient products on every call; the planner's candidate scans
    evaluate these curves hundreds of times per choice, so the
    invariant structure is folded into constants once and each curve
    becomes a couple of multiplies.  All callables accept scalars or
    numpy arrays of subbatch sizes.
    """

    intensity: Callable[[float], float]
    step_time: Callable[[float], float]
    time_per_sample: Callable[[float], float]
    footprint: Callable[[float], float]


def compile_curves(model: FirstOrderModel, params: float,
                   accel: AcceleratorConfig) -> CompiledCurves:
    """Fold p-invariant terms of the §5.2.1 curves into constants.

    Memoized on the scalar ingredients (coefficients, params,
    accelerator throughputs): :func:`choose_subbatch` and
    :func:`subbatch_curve` are typically called back-to-back for the
    same configuration, and reports re-plan the same models repeatedly
    — each such call now reuses the folded closures.
    """
    c1, c2 = model.intensity_coefficients()
    before = _curves_cached.cache_info().hits
    curves = _curves_cached(
        model.gamma, model.lam, model.mu, model.delta, model.phi,
        c1, c2, float(params),
        accel.achievable_flops, accel.achievable_bandwidth,
    )
    if _curves_cached.cache_info().hits > before:
        _CURVE_HITS.inc()
    return curves


@lru_cache(maxsize=256)
def _curves_cached(gamma: float, lam: float, mu: float,
                   delta: Optional[float], phi: float,
                   c1: float, c2: float, params: float,
                   achievable_flops: float,
                   achievable_bandwidth: float) -> CompiledCurves:
    _CURVES.inc()
    root_p = math.sqrt(params)
    c1_root_p = c1 * root_p
    # ct = γ·b·p, at = λ·p + µ·b·√p (per-b slopes/offsets precomputed)
    compute_slope = gamma * params / achievable_flops
    memory_fixed = lam * params / achievable_bandwidth
    memory_slope = mu * root_p / achievable_bandwidth

    def intensity(b):
        return b * root_p / (c1_root_p + c2 * b)

    def step_time(b):
        return np.maximum(compute_slope * b, memory_fixed + memory_slope * b)

    def time_per_sample(b):
        return step_time(b) / b

    if delta is None:
        def footprint(b):
            return b * 0.0
    else:
        delta_p = delta * params
        phi_root_p = phi * root_p

        def footprint(b):
            return delta_p + phi_root_p * b

    return CompiledCurves(intensity=intensity, step_time=step_time,
                          time_per_sample=time_per_sample,
                          footprint=footprint)


#: the bracket every choose_subbatch bisection searches
SOLVE_BRACKET = (1.0, 2.0 ** 18)


@dataclass(frozen=True)
class SymbolicCurve:
    """One bisection objective as a symbolic family.

    ``expr`` is the curve with every fitted constant left symbolic, so
    a monotonicity proof over positive constant ranges covers *every*
    instantiation :func:`compile_curves` can produce — the static
    analyzer (``repro.check.solver_lint``) verifies the solver
    precondition once, for all models and accelerators, instead of per
    fitted ``FirstOrderModel``.  ``required`` names the direction
    :func:`choose_subbatch`'s ``bisect_increasing`` call assumes in
    ``solve_symbol`` over ``bracket``.
    """

    name: str
    expr: object          # Expr; object keeps the planner numpy-only
    solve_symbol: object  # the Symbol bisected over
    required: str         # "nondecreasing" | "nonincreasing"
    bracket: tuple
    note: str = ""


def symbolic_curves() -> List[SymbolicCurve]:
    """The §5.2.1 curve family behind every ``choose_subbatch`` root.

    Mirrors :func:`_curves_cached` exactly, with the folded constants
    (γ, λ, µ, c1, c2, p, achievable FLOP/s ``xc``, achievable
    bandwidth ``xa``) as free symbols.  :func:`choose_subbatch` runs
    three ``bisect_increasing`` calls; their objectives reduce to two
    monotonicity obligations in the subbatch ``b``:

    * ``intensity`` nondecreasing (ridge crossing + saturation roots);
    * ``time_per_sample`` nonincreasing (the min-latency root bisects
      its negation).
    """
    from ..symbolic import Max, Symbol

    b = Symbol("b")
    p = Symbol("p")
    gamma, lam, mu = Symbol("gamma"), Symbol("lam"), Symbol("mu")
    c1, c2 = Symbol("c1"), Symbol("c2")
    xc, xa = Symbol("xc"), Symbol("xa")

    root_p = p ** 0.5
    intensity = b * root_p / (c1 * root_p + c2 * b)
    step_time = Max.of(gamma * p / xc * b,
                       lam * p / xa + mu * root_p / xa * b)
    time_per_sample = step_time / b

    return [
        SymbolicCurve(
            name="intensity", expr=intensity, solve_symbol=b,
            required="nondecreasing", bracket=SOLVE_BRACKET,
            note="ridge crossing and 0.95-saturation roots",
        ),
        SymbolicCurve(
            name="time_per_sample", expr=time_per_sample,
            solve_symbol=b,
            required="nonincreasing", bracket=SOLVE_BRACKET,
            note="min-latency root bisects the negated curve",
        ),
    ]


@dataclass
class SubbatchCurvePoint:
    """One subbatch size's intensity and per-sample time (Fig. 11)."""

    subbatch: float
    intensity: float
    step_time: float
    time_per_sample: float
    footprint_bytes: float


@dataclass
class SubbatchChoice:
    """The three §5.2.1 points of interest plus the final pick."""

    ridge_match: float          # b where intensity == effective ridge
    saturation: float           # b at 95% of the intensity at the cap
    min_latency: float          # smallest b near asymptotic best t/sample
    chosen: int                 # min_latency on the grid, at most the cap
    asymptotic_time_per_sample: float
    capped: bool                # max_subbatch, not the curve, set the answer


def subbatch_curve(model: FirstOrderModel, params: float,
                   accel: AcceleratorConfig,
                   subbatches: List[float]) -> List[SubbatchCurvePoint]:
    """Evaluate the Figure 11 curves over the given subbatch sizes.

    The whole candidate list is evaluated vectorized through the
    compiled curves — one numpy pass instead of a Roofline object per
    point.
    """
    curves = compile_curves(model, params, accel)
    b = np.asarray(list(subbatches), dtype=float)
    intensity = np.atleast_1d(curves.intensity(b))
    step_time = np.atleast_1d(curves.step_time(b))
    footprint = np.atleast_1d(curves.footprint(b))
    return [
        SubbatchCurvePoint(
            subbatch=float(b[i]),
            intensity=float(intensity[i]),
            step_time=float(step_time[i]),
            time_per_sample=float(step_time[i] / b[i]),
            footprint_bytes=float(footprint[i]),
        )
        for i in range(b.shape[0])
    ]


def choose_subbatch(model: FirstOrderModel, params: float,
                    accel: AcceleratorConfig, *,
                    tolerance: float = 0.05,
                    max_subbatch: float = SOLVE_BRACKET[1]) -> SubbatchChoice:
    """Pick the training subbatch per §5.2.1.

    The asymptotic per-sample time is the compute-bound limit
    ``max(γ·p/(0.8·xc), µ·√p/(0.7·xa))``; we take the smallest grid
    subbatch within ``tolerance`` of it.  The saturation point is where
    intensity reaches 95% of its value at ``max_subbatch``, so it moves
    with the cap.

    Every root is searched in ``[1, max_subbatch]`` and ``chosen`` never
    exceeds the cap: it is ``min(ceil32(min_latency),
    floor32(max_subbatch))``.  ``capped`` says the cap set the answer
    instead of the curve: the ridge or min-latency solve ended at
    ``max_subbatch`` short of its target, or ``chosen`` was rounded
    down to stay under it.  A cap below the 32-sample grid, or above
    :data:`SOLVE_BRACKET` (the bracket the solver-precondition proofs
    cover), raises :class:`~repro.errors.BindingError` (E-BIND).

    The root-finding loops drive the compiled curves (invariant terms
    folded once) rather than re-deriving ``√p`` per probe.
    """
    lo, hi = SOLVE_BRACKET
    cap = float(max_subbatch)
    if not _GRID <= cap <= hi:
        raise BindingError(
            f"'max_subbatch' must be in [{_GRID}, {hi:g}], got "
            f"{max_subbatch!r}",
            hint=f"subbatches are chosen on a {_GRID}-sample grid, and "
                 f"the solver proofs (repro-lint M003) cover only "
                 f"[{lo:g}, {hi:g}]",
        )
    _CHOICES.inc()
    iters_before = _BISECT_ITERS.value
    with error_context(model=model.domain, stage="choose_subbatch",
                       params=params), \
         obs.span("planner.choose_subbatch", "planner",
                  params=params) as span:
        curves = compile_curves(model, params, accel)

        # intensity is increasing in b; find the ridge crossing
        check_deadline("choose_subbatch", model=model.domain,
                       solved=0, solves_total=3)
        ridge = bisect_increasing(
            curves.intensity,
            accel.effective_ridge_point, lo, cap,
        )

        cap_intensity = curves.intensity(cap)
        check_deadline("choose_subbatch", model=model.domain,
                       solved=1, solves_total=3)
        saturation = bisect_increasing(
            curves.intensity,
            0.95 * cap_intensity, lo, cap,
        )

        limit = float(max(
            model.gamma * params / accel.achievable_flops,
            model.mu * np.sqrt(params) / accel.achievable_bandwidth,
        ))
        # per-sample time decreases monotonically in b; bisect on -time
        check_deadline("choose_subbatch", model=model.domain,
                       solved=2, solves_total=3)
        latency_target = (1.0 + tolerance) * limit
        min_latency = bisect_increasing(
            lambda b: -curves.time_per_sample(b),
            -latency_target, lo, cap,
        )

        # the smallest grid subbatch within the target, checked on the
        # curve: the solve stops near the root, not on it, so a root
        # within its tolerance of a grid point could round either way
        grid = int(math.ceil(min_latency / _GRID)) * _GRID
        if curves.time_per_sample(grid) > latency_target:
            grid += _GRID
        elif grid > _GRID and \
                curves.time_per_sample(grid - _GRID) <= latency_target:
            grid -= _GRID
        chosen = min(grid, int(cap // _GRID) * _GRID)
        capped = bool(cap_intensity < accel.effective_ridge_point
                      or curves.time_per_sample(cap) > latency_target
                      or chosen < grid)
        iterations = _BISECT_ITERS.value - iters_before
        _CHOICE_ITERS.observe(iterations)
        span.set(chosen=chosen, capped=capped,
                 bisect_iterations=iterations)
        return SubbatchChoice(
            ridge_match=ridge,
            saturation=saturation,
            min_latency=min_latency,
            chosen=chosen,
            asymptotic_time_per_sample=limit,
            capped=capped,
        )
