"""Symbolic algebra substrate.

The paper's artifact (Catamount) analyzes compute graphs whose tensor
dimensions are *symbolic* — e.g. hidden size ``h``, vocabulary ``v``,
subbatch ``b`` — and produces closed-form requirement formulas such as
``q*(16*h**2*l + 2*h*v)`` FLOPs per sample.  This package is a
self-contained computer-algebra core (sympy is unavailable offline)
providing exactly the algebra that analysis needs.

Public entry points::

    from repro.symbolic import Symbol, symbols, as_expr, sqrt
    from repro.symbolic import Max, Min, Ceil, Floor, Log
    from repro.symbolic import expand, degree, coefficient, asymptotic_ratio
"""

from .expr import (
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
    as_expr,
    sqrt,
    symbols,
)
from .compile import CompiledExpr, compile_batch, compile_expr
from .poly import (Poly, asymptotic_ratio, coefficient, degree, degrees,
                   expand, leading_term, nonnegative)
from .solve import (bisect_increasing, evalf_fn, expand_bracket,
                    invert_power_law, power_law)

__all__ = [
    "Expr",
    "Const",
    "Symbol",
    "Add",
    "Mul",
    "Pow",
    "Max",
    "Min",
    "Ceil",
    "Floor",
    "Log",
    "sqrt",
    "as_expr",
    "symbols",
    "Poly",
    "expand",
    "degree",
    "degrees",
    "coefficient",
    "leading_term",
    "asymptotic_ratio",
    "nonnegative",
    "invert_power_law",
    "power_law",
    "bisect_increasing",
    "expand_bracket",
    "evalf_fn",
    "CompiledExpr",
    "compile_expr",
    "compile_batch",
]
