"""First-order requirement models — the constants of Table 2.

The paper summarizes each domain with four constants:

* ``γ`` — FLOPs/parameter per sample: ``ct(p) ≈ γ·b·p``,
* ``λ`` — batch-independent bytes/parameter: weight traffic,
* ``µ`` — per-sample activation-traffic coefficient:
  ``at(p, b) ≈ λ·p + µ·b·√p``,
* ``δ`` — minimal-footprint bytes/parameter: ``ft(p) ≈ δ·p``,

and renders operational intensity as ``b√p/(c₁√p + c₂·b)`` with
``c₁ = λ/γ``, ``c₂ = µ/γ`` (e.g. word LM: 1755/481 ≈ 3.65 and
30784/481 ≈ 64 — exactly the Table 2 entry).

Two derivations are provided and cross-checked in tests:

* **symbolic** — exact asymptotics of the aggregate expressions in the
  model's size symbol (γ = lim FLOPs-per-sample / p, etc.);
* **numeric** — least-squares fits over a size sweep, the method
  available to the paper's authors (they only had TFprof samples).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from ..symbolic import Const, Expr, Pow, coefficient, degree
from ..symbolic.poly import asymptotic_ratio
from .counters import StepCounts

__all__ = ["FirstOrderModel", "derive_symbolic", "fit_numeric", "nnls2"]


@dataclass(frozen=True)
class FirstOrderModel:
    """The γ/λ/µ/δ constants for one domain (Table 2 row).

    The footprint uses the two-term form ``ft(p, b) ≈ δ·p + φ·b·√p``:
    persistent weight state grows with p while live activations grow
    with b·√p — at frontier scale the δ·p term dominates, which is why
    the paper's Table 2 reports footprint as bytes/parameter.

    Frozen: sweeps share one cached instance among all report
    generators (see :mod:`repro.analysis.sweep`); derive variants with
    ``dataclasses.replace`` instead of assigning fields.
    """

    domain: str
    gamma: float       # FLOPs / param / sample
    lam: float         # bytes / param (batch-independent)
    mu: float          # bytes / (sample · √param)
    delta: Optional[float] = None  # footprint bytes / param
    phi: float = 0.0               # footprint bytes / (sample · √param)

    # -- paper-form predictions -------------------------------------------
    def step_flops(self, params: float, subbatch: float) -> float:
        """ct ≈ γ·b·p."""
        return self.gamma * subbatch * params

    def step_bytes(self, params: float, subbatch: float) -> float:
        """at ≈ λ·p + µ·b·√p."""
        return self.lam * params + self.mu * subbatch * np.sqrt(params)

    def footprint_bytes(self, params: float,
                        subbatch: float = 0.0) -> float:
        """ft ≈ δ·p + φ·b·√p."""
        if self.delta is None:
            raise ValueError(f"{self.domain}: δ was not derived")
        return self.delta * params + self.phi * subbatch * np.sqrt(params)

    def intensity(self, params: float, subbatch: float) -> float:
        """Graph-level operational intensity b√p/(c₁√p + c₂b)."""
        c1, c2 = self.intensity_coefficients()
        root_p = np.sqrt(params)
        return subbatch * root_p / (c1 * root_p + c2 * subbatch)

    def intensity_coefficients(self) -> tuple:
        """(c₁, c₂) = (λ/γ, µ/γ) of the Table 2 intensity column."""
        return self.lam / self.gamma, self.mu / self.gamma

    def intensity_formula(self) -> str:
        """Human-readable Table 2 intensity entry."""
        c1, c2 = self.intensity_coefficients()
        return f"b*sqrt(p)/({c1:.3g}*sqrt(p) + {c2:.3g}*b)"


def derive_symbolic(counts: StepCounts, *,
                    delta: Optional[float] = None) -> FirstOrderModel:
    """Exact asymptotic constants from the symbolic aggregates.

    Requires the model to have been built with its size symbol free.
    The √p normalization uses the leading term of p(s): if
    ``p ~ c·s^d`` then ``√p ~ √c·s^(d/2)``, so
    ``µ = lim bytes_per_sample / s^(d/2) / √c``.
    """
    model = counts.model
    s = model.size_symbol
    if s is None:
        raise ValueError(
            "symbolic derivation needs a model built with symbolic size"
        )
    p = counts.params

    gamma = asymptotic_ratio(counts.flops_per_sample, p, s).evalf()
    lam = asymptotic_ratio(counts.bytes_fixed, p, s).evalf()

    d = degree(p, s)
    lead = coefficient(p, s, d)
    if not lead.is_number:
        raise ValueError(f"leading coefficient of p is symbolic: {lead}")
    half = Fraction(d) / 2
    mu_expr = asymptotic_ratio(counts.bytes_per_sample,
                               Pow.of(s, Const(half)), s)
    mu = mu_expr.evalf() / float(np.sqrt(lead.evalf()))

    return FirstOrderModel(domain=model.domain, gamma=gamma, lam=lam,
                           mu=mu, delta=delta)


def nnls2(design: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``argmin ‖design·x − y‖`` over ``x ≥ 0`` for a 2-column design.

    Exact, by the active sets of two variables: the unconstrained
    least-squares solution when both coefficients are non-negative
    (then it is the optimum); otherwise the optimum lies on a face,
    so it is the best of each single-column fit clamped at 0, and
    zero.  Least squares is convex, so the candidate with the
    smallest residual is the non-negative optimum.
    """
    coef = np.linalg.lstsq(design, y, rcond=None)[0]
    if np.all(coef >= 0.0):
        return coef
    best, best_rss = np.zeros(2), float(np.dot(y, y))
    for j in (0, 1):
        x = float(np.linalg.lstsq(design[:, j:j + 1], y, rcond=None)[0][0])
        r = y - x * design[:, j]
        rss = float(np.dot(r, r))
        if x > 0.0 and rss < best_rss:
            best, best_rss = np.zeros(2), rss
            best[j] = x
    return best


def fit_numeric(
    domain: str,
    params: Sequence[float],
    flops_per_sample: Sequence[float],
    bytes_fixed: Sequence[float],
    bytes_per_sample: Sequence[float],
    footprints: Optional[Sequence[float]] = None,
    footprint_subbatch: float = 1.0,
) -> FirstOrderModel:
    """Least-squares fits of γ, λ, µ (and δ, φ) over a model-size sweep.

    This is the methodology available with only profile samples
    (TFprof-style): fit ``flops ≈ γ·p``, ``bytes₀ ≈ λ·p``,
    ``bytes₁ ≈ µ·√p``, and the joint footprint
    ``ft ≈ δ·p + φ·b·√p`` (sweep at fixed subbatch b).
    """
    p = np.asarray(params, dtype=float)
    if p.size < 2:
        raise ValueError("need at least two sweep points to fit")

    def through_origin(x: np.ndarray, y: np.ndarray) -> float:
        return float(np.dot(x, y) / np.dot(x, x))

    gamma = through_origin(p, np.asarray(flops_per_sample, dtype=float))
    lam = through_origin(p, np.asarray(bytes_fixed, dtype=float))
    mu = through_origin(np.sqrt(p),
                        np.asarray(bytes_per_sample, dtype=float))
    delta = None
    phi = 0.0
    if footprints is not None:
        # physical floor: fp32 weights + gradients are persistent, so
        # δ ≥ 8 B/param; fit the remainder non-negatively against
        # [p, b·√p] (p and √p are collinear over a one-decade sweep,
        # so an unconstrained fit can go unphysical)
        floor = 8.0
        ft = np.asarray(footprints, dtype=float)
        residual = np.maximum(ft - floor * p, 0.0)
        design = np.column_stack([p, footprint_subbatch * np.sqrt(p)])
        coef = nnls2(design, residual)
        delta = floor + float(coef[0])
        phi = float(coef[1])
    return FirstOrderModel(domain=domain, gamma=gamma, lam=lam, mu=mu,
                           delta=delta, phi=phi)
