"""Human-readable rendering of symbolic expressions.

The printer produces conventional infix notation, e.g.::

    16*h**2*l + 2*h*v
    b*p**(1/2)/(3.65*p**(1/2) + 64*b)

Rendering is deterministic and stable across interning/construction
order: the printer re-sorts sum terms and product factors by the
canonical ``sort_key`` itself (injective over structurally distinct
expressions — exact rational tiebreaks, no ``id()`` ingredients),
rather than trusting the order the nodes happened to be built in.  For
canonically-constructed expressions the re-sort is the identity, so
printed goldens are unchanged.
"""

from __future__ import annotations

from fractions import Fraction

from .expr import Add, Ceil, Const, Expr, Floor, Log, Max, Min, Mul, Pow, Symbol

__all__ = ["to_str"]


def _frac_str(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    as_float = float(value)
    # prefer short decimal rendering when exact-ish, else fraction form
    if abs(as_float) < 1e12 and Fraction(as_float) == value:
        text = repr(as_float)
        if text.endswith(".0"):
            text = text[:-2]
        return text
    return f"{value.numerator}/{value.denominator}"


def _power_str(base: Expr, exponent: Expr) -> str:
    base_str = to_str(base)
    if isinstance(base, (Add, Mul)) or (
        isinstance(base, Const) and base.value < 0
    ):
        base_str = f"({base_str})"
    if isinstance(exponent, Const) and exponent.value == 1:
        return base_str
    if isinstance(exponent, Const) and exponent.value.denominator != 1:
        # fractional exponents read best as ratios: p**(1/2)
        exp_str = (f"({exponent.value.numerator}/"
                   f"{exponent.value.denominator})")
        return f"{base_str}**{exp_str}"
    exp_str = to_str(exponent)
    if not (isinstance(exponent, Const) and exponent.value.denominator == 1
            and exponent.value >= 0):
        exp_str = f"({exp_str})"
    return f"{base_str}**{exp_str}"


def _product_str(coeff: Fraction, factors) -> str:
    numer_parts = []
    denom_parts = []
    for base, exponent in sorted(factors,
                                 key=lambda be: be[0].sort_key()):
        if isinstance(exponent, Const) and exponent.value < 0:
            denom_parts.append(_power_str(base, Const(-exponent.value)))
        else:
            numer_parts.append(_power_str(base, exponent))

    sign = ""
    if coeff < 0:
        sign = "-"
        coeff = -coeff
    if coeff != 1 or not numer_parts:
        numer_parts.insert(0, _frac_str(coeff))
    numer = "*".join(numer_parts)
    if denom_parts:
        denom = "*".join(denom_parts)
        if len(denom_parts) > 1:
            denom = f"({denom})"
        return f"{sign}{numer}/{denom}"
    return f"{sign}{numer}"


def to_str(expr: Expr) -> str:
    """Render an expression as conventional infix text."""
    if isinstance(expr, Const):
        return _frac_str(expr.value)
    if isinstance(expr, Symbol):
        return expr.name
    if isinstance(expr, Pow):
        if isinstance(expr.exponent, Const) and expr.exponent.value < 0:
            # a bare reciprocal reads as a division: 1/p, 1/p**2
            return _product_str(Fraction(1),
                                ((expr.base, expr.exponent),))
        return _power_str(expr.base, expr.exponent)
    if isinstance(expr, Mul):
        return _product_str(expr.coeff, expr.factors)
    if isinstance(expr, Add):
        parts = []
        for term, coeff in sorted(expr.terms,
                                  key=lambda tc: tc[0].sort_key()):
            if isinstance(term, Mul):
                text = _product_str(coeff * term.coeff, term.factors)
            elif coeff == 1:
                text = to_str(term)
            else:
                text = _product_str(coeff, ((term, Const(1)),)) \
                    if not isinstance(term, Pow) \
                    else _product_str(coeff, ((term.base, term.exponent),))
            parts.append(text)
        if expr.const != 0:
            parts.append(_frac_str(expr.const))
        out = parts[0]
        for part in parts[1:]:
            if part.startswith("-"):
                out += " - " + part[1:]
            else:
                out += " + " + part
        return out
    if isinstance(expr, Max):
        return "max(" + ", ".join(to_str(a) for a in expr.fargs) + ")"
    if isinstance(expr, Min):
        return "min(" + ", ".join(to_str(a) for a in expr.fargs) + ")"
    if isinstance(expr, Ceil):
        return f"ceil({to_str(expr.fargs[0])})"
    if isinstance(expr, Floor):
        return f"floor({to_str(expr.fargs[0])})"
    if isinstance(expr, Log):
        return f"log({to_str(expr.fargs[0])})"
    raise TypeError(f"cannot render {type(expr).__name__}")
