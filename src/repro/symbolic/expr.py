"""Symbolic expression engine.

A compact computer-algebra core sufficient for compute-graph analysis:
exact rational constants, symbols, canonicalized sums/products/powers,
and a few interpreted functions (``max``, ``ceil``, ``floor``, ``log``).

Design notes
------------
* Every symbol is assumed to denote a *positive real* quantity (tensor
  dimensions, batch sizes, byte counts).  This assumption makes power
  merging such as ``(p**(1/2))**2 == p`` valid and keeps the algebra
  simple.  It matches how Catamount treats graph dimensions.
* Expressions are immutable and hash-consed by structural equality, so
  they are safe to use as dict keys (tensor shape caches, coefficient
  maps).
* Construction canonicalizes: sums flatten and collect like terms,
  products flatten and collect like bases, numeric subexpressions fold.
  ``expand`` (distribution of ``*`` over ``+``) is explicit and lives in
  :mod:`repro.symbolic.poly` because it can blow up expression size.
"""

from __future__ import annotations

import math
import weakref
from fractions import Fraction
from typing import Dict, Mapping, Tuple, Union

Number = Union[int, float, Fraction]

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
]


def _to_fraction(value: Number) -> Fraction:
    """Convert a Python number to an exact Fraction.

    Floats convert via their exact binary value; this keeps arithmetic
    reproducible (the same float always maps to the same Fraction).
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):  # bool is an int subclass; reject explicitly
        raise TypeError("bool is not a valid expression constant")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            raise ValueError(f"non-finite constant {value!r} in expression")
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a numeric constant")


def as_expr(value: Union["Expr", Number]) -> "Expr":
    """Coerce a Python number (or pass through an Expr) to an Expr."""
    if isinstance(value, Expr):
        return value
    return Const(_to_fraction(value))


def _normalize_bindings(bindings):
    """Canonicalize an evalf bindings mapping to Symbol keys.

    Callers may key bindings by ``Symbol`` or by plain name; resolving
    the name-keyed form once here keeps the recursive evaluation to a
    single dict probe per symbol (instead of two probes per occurrence).
    Returns the input unchanged when no string keys are present.
    """
    if not bindings:
        return None
    for key in bindings:
        if isinstance(key, str):
            break
    else:
        return bindings
    return {
        Symbol(key) if isinstance(key, str) else key: value
        for key, value in bindings.items()
    }


#: Global hash-consing table: structural key -> the unique live Expr
#: with that structure.  Values are weak so expressions are reclaimed
#: once no longer referenced; keys hold the (interned) children, whose
#: own entries expire with them.
_INTERN: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()


def _intern(candidate: "Expr") -> "Expr":
    """Return the canonical instance for ``candidate``'s structure.

    ``setdefault`` keeps a concurrent double-construction race benign:
    exactly one candidate wins and the loser is discarded before it can
    escape its constructor.
    """
    return _INTERN.setdefault(candidate._key, candidate)


class Expr:
    """Base class of all symbolic expressions.

    Construction is globally hash-consed (interned): structurally equal
    expressions are the *same object*, so ``__eq__`` is a pointer
    comparison and ``__hash__`` returns a value cached at construction.
    Subclasses build a shallow ``_key`` (child identities, not child
    keys) in ``__new__`` — hashing a node is O(children), not O(tree).
    """

    __slots__ = ("_key", "_hash", "__weakref__")

    # -- identity ------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if isinstance(other, Expr):
            # interning makes structural equality identity; distinct
            # objects compare unequal via their (shallow) keys only as
            # a defensive fallback
            return self._key == other._key
        if isinstance(other, (int, float, Fraction)):
            return self is as_expr(other)
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:
        return self._hash

    # interned expressions are immutable singletons: copying returns
    # the same object, and pickling re-interns through the constructor
    def __copy__(self) -> "Expr":
        return self

    def __deepcopy__(self, memo) -> "Expr":
        return self

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other: Union["Expr", Number]) -> "Expr":
        return Add.of(self, as_expr(other))

    def __radd__(self, other: Number) -> "Expr":
        return Add.of(as_expr(other), self)

    def __sub__(self, other: Union["Expr", Number]) -> "Expr":
        return Add.of(self, Mul.of(Const(Fraction(-1)), as_expr(other)))

    def __rsub__(self, other: Number) -> "Expr":
        return Add.of(as_expr(other), Mul.of(Const(Fraction(-1)), self))

    def __mul__(self, other: Union["Expr", Number]) -> "Expr":
        return Mul.of(self, as_expr(other))

    def __rmul__(self, other: Number) -> "Expr":
        return Mul.of(as_expr(other), self)

    def __truediv__(self, other: Union["Expr", Number]) -> "Expr":
        return Mul.of(self, Pow.of(as_expr(other), Const(Fraction(-1))))

    def __rtruediv__(self, other: Number) -> "Expr":
        return Mul.of(as_expr(other), Pow.of(self, Const(Fraction(-1))))

    def __pow__(self, other: Union["Expr", Number]) -> "Expr":
        return Pow.of(self, as_expr(other))

    def __neg__(self) -> "Expr":
        return Mul.of(Const(Fraction(-1)), self)

    def __pos__(self) -> "Expr":
        return self

    # -- interface -----------------------------------------------------
    @property
    def is_number(self) -> bool:
        """True when the expression contains no free symbols."""
        return not self.free_symbols()

    def free_symbols(self) -> frozenset:
        raise NotImplementedError

    def subs(self, mapping: Mapping["Symbol", Union["Expr", Number]]) -> "Expr":
        """Substitute symbols with expressions/numbers, re-simplifying."""
        raise NotImplementedError

    def evalf(self, bindings: Mapping["Symbol", Number] = None) -> float:
        """Evaluate to a float, given numeric bindings for all symbols.

        ``bindings`` may key symbols by ``Symbol`` object or by name;
        name keys are canonicalized once here, at the boundary.
        """
        return self._evalf(_normalize_bindings(bindings))

    def _evalf(self, bindings) -> float:
        """Recursive evaluation with canonically (Symbol-)keyed bindings."""
        raise NotImplementedError

    def as_fraction(self) -> Fraction:
        """Exact rational value of a constant expression.

        Raises ``ValueError`` for non-constant or irrational expressions.
        """
        raise ValueError(f"{self!r} is not an exact rational constant")

    def sort_key(self) -> tuple:
        """Total order over expressions used for canonical term ordering."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self!s})"

    def __str__(self) -> str:
        from .printing import to_str

        return to_str(self)


class Const(Expr):
    """Exact rational constant."""

    __slots__ = ("value",)

    def __new__(cls, value: Number):
        value = _to_fraction(value)
        key = ("const", value)
        cached = _INTERN.get(key)
        if cached is not None:
            return cached
        self = object.__new__(cls)
        self.value = value
        self._key = key
        self._hash = hash(key)
        return _intern(self)

    def __reduce__(self):
        return (Const, (self.value,))

    def free_symbols(self) -> frozenset:
        return frozenset()

    def subs(self, mapping) -> "Expr":
        return self

    def _evalf(self, bindings) -> float:
        return float(self.value)

    def as_fraction(self) -> Fraction:
        return self.value

    def sort_key(self) -> tuple:
        # the float leads for cheap comparisons; the exact pair breaks
        # float-equal ties so the total order is injective on values
        v = self.value
        return (0, float(v), (v.numerator, v.denominator))


#: Shared constants, used frequently during canonicalization.
ZERO = Const(0)
ONE = Const(1)
NEG_ONE = Const(-1)
HALF = Const(Fraction(1, 2))


class Symbol(Expr):
    """A named positive-real-valued free variable."""

    __slots__ = ("name",)

    def __new__(cls, name: str):
        if not name or not isinstance(name, str):
            raise ValueError("symbol name must be a non-empty string")
        key = ("symbol", name)
        cached = _INTERN.get(key)
        if cached is not None:
            return cached
        self = object.__new__(cls)
        self.name = name
        self._key = key
        self._hash = hash(key)
        return _intern(self)

    def __reduce__(self):
        return (Symbol, (self.name,))

    def free_symbols(self) -> frozenset:
        return frozenset((self,))

    def subs(self, mapping) -> "Expr":
        if self in mapping:
            return as_expr(mapping[self])
        # also allow substitution by name for convenience
        if self.name in mapping:
            return as_expr(mapping[self.name])
        return self

    def _evalf(self, bindings) -> float:
        try:
            return float(bindings[self])
        except (KeyError, TypeError):
            from ..errors import BindingError, did_you_mean

            provided = [
                key.name if isinstance(key, Symbol) else str(key)
                for key in (bindings or ())
            ]
            raise BindingError(
                f"unbound symbol {self.name!r} in evalf",
                hint=did_you_mean(self.name, provided),
            ) from None

    def sort_key(self) -> tuple:
        return (1, self.name)


def symbols(names: str) -> Tuple[Symbol, ...]:
    """Create several symbols at once: ``h, l, v = symbols("h l v")``."""
    parts = names.replace(",", " ").split()
    if not parts:
        raise ValueError("no symbol names given")
    return tuple(Symbol(p) for p in parts)


class Add(Expr):
    """Canonical sum: constant + sum(coeff * term).

    ``terms`` is a tuple of ``(term, coeff)`` sorted by term sort key,
    where ``term`` is a non-Add, non-Const expression with unit leading
    coefficient, and ``coeff`` a nonzero Fraction.
    """

    __slots__ = ("const", "terms")

    def __new__(cls, const: Fraction, terms: Tuple[Tuple[Expr, Fraction], ...]):
        # shallow key: child *objects* stand in for their structure
        # (sound because children are themselves interned)
        key = ("add", const, terms)
        cached = _INTERN.get(key)
        if cached is not None:
            return cached
        self = object.__new__(cls)
        self.const = const
        self.terms = terms
        self._key = key
        self._hash = hash(key)
        return _intern(self)

    def __reduce__(self):
        return (Add, (self.const, self.terms))

    @staticmethod
    def of(*args: Expr) -> Expr:
        const = Fraction(0)
        coeffs: Dict[Expr, Fraction] = {}

        def absorb(expr: Expr) -> None:
            nonlocal const
            if isinstance(expr, Const):
                const += expr.value
            elif isinstance(expr, Add):
                const += expr.const
                for term, coeff in expr.terms:
                    coeffs[term] = coeffs.get(term, Fraction(0)) + coeff
            else:
                coeff, term = _split_coefficient(expr)
                if isinstance(term, Const):
                    const += coeff * term.value
                else:
                    coeffs[term] = coeffs.get(term, Fraction(0)) + coeff

        for arg in args:
            absorb(arg)

        terms = tuple(
            sorted(
                ((t, c) for t, c in coeffs.items() if c != 0),
                key=lambda tc: tc[0].sort_key(),
            )
        )
        if not terms:
            return Const(const)
        if const == 0 and len(terms) == 1:
            term, coeff = terms[0]
            return _scale(term, coeff)
        return Add(const, terms)

    def args(self) -> Tuple[Expr, ...]:
        """The addends as plain expressions (constant last if nonzero)."""
        out = [_scale(t, c) for t, c in self.terms]
        if self.const != 0:
            out.append(Const(self.const))
        return tuple(out)

    def free_symbols(self) -> frozenset:
        out = frozenset()
        for term, _ in self.terms:
            out |= term.free_symbols()
        return out

    def subs(self, mapping) -> Expr:
        parts = [Const(self.const)]
        for term, coeff in self.terms:
            parts.append(Mul.of(Const(coeff), term.subs(mapping)))
        return Add.of(*parts)

    def _evalf(self, bindings) -> float:
        total = float(self.const)
        for term, coeff in self.terms:
            total += float(coeff) * term._evalf(bindings)
        return total

    def as_fraction(self) -> Fraction:
        if self.terms:
            raise ValueError(f"{self} is not constant")
        return self.const

    def sort_key(self) -> tuple:
        c = self.const
        return (4, tuple((t.sort_key(), co) for t, co in self.terms),
                float(c), (c.numerator, c.denominator))


def _split_coefficient(expr: Expr) -> Tuple[Fraction, Expr]:
    """Split ``expr`` into (rational coefficient, residual term)."""
    if isinstance(expr, Const):
        return expr.value, ONE
    if isinstance(expr, Mul) and expr.coeff != 1:
        # factors are already canonical: rebuild the unit-coefficient
        # residual directly instead of re-canonicalizing
        factors = expr.factors
        if len(factors) == 1:
            base, exponent = factors[0]
            if isinstance(exponent, Const) and exponent.value == 1:
                return expr.coeff, base
            return expr.coeff, Pow(base, exponent)
        return expr.coeff, Mul(Fraction(1), factors)
    return Fraction(1), expr


def _scale(term: Expr, coeff: Fraction) -> Expr:
    if coeff == 1:
        return term
    return Mul.of(Const(coeff), term)


class Mul(Expr):
    """Canonical product: coeff * prod(base ** exponent).

    ``factors`` is a tuple of ``(base, exponent)`` sorted by base sort
    key; bases are non-Mul, non-Const expressions, exponents are
    arbitrary expressions (commonly rational Consts).
    """

    __slots__ = ("coeff", "factors")

    def __new__(cls, coeff: Fraction, factors: Tuple[Tuple[Expr, Expr], ...]):
        key = ("mul", coeff, factors)
        cached = _INTERN.get(key)
        if cached is not None:
            return cached
        self = object.__new__(cls)
        self.coeff = coeff
        self.factors = factors
        self._key = key
        self._hash = hash(key)
        return _intern(self)

    def __reduce__(self):
        return (Mul, (self.coeff, self.factors))

    @staticmethod
    def of(*args: Expr) -> Expr:
        coeff = Fraction(1)
        powers: Dict[Expr, Expr] = {}

        def absorb_power(base: Expr, exponent: Expr) -> None:
            nonlocal coeff
            if isinstance(base, Const):
                folded = _fold_const_pow(base.value, exponent)
                if isinstance(folded, Const):
                    coeff *= folded.value
                    return
                base, exponent = _pow_parts(folded)
            if base in powers:
                powers[base] = Add.of(powers[base], exponent)
            else:
                powers[base] = exponent

        def absorb(expr: Expr) -> None:
            nonlocal coeff
            if isinstance(expr, Const):
                coeff *= expr.value
            elif isinstance(expr, Mul):
                coeff *= expr.coeff
                for base, exponent in expr.factors:
                    absorb_power(base, exponent)
            elif isinstance(expr, Pow):
                absorb_power(expr.base, expr.exponent)
            else:
                absorb_power(expr, ONE)

        for arg in args:
            absorb(arg)

        if coeff == 0:
            return ZERO

        factors = []
        for base, exponent in powers.items():
            if isinstance(exponent, Const) and exponent.value == 0:
                continue
            # re-canonicalize in case exponent addition enabled folding
            folded = Pow.of(base, exponent)
            if isinstance(folded, Const):
                coeff *= folded.value
                continue
            fbase, fexp = _pow_parts(folded)
            factors.append((fbase, fexp))

        factors.sort(key=lambda be: be[0].sort_key())
        factors = tuple(factors)
        if not factors:
            return Const(coeff)
        if len(factors) == 1:
            base, exponent = factors[0]
            if isinstance(exponent, Const) and exponent.value == 1:
                if coeff == 1:
                    return base
                if isinstance(base, Add):
                    # distribute a rational coefficient into the sum so
                    # -(h - v) and (v - h) canonicalize identically
                    return Add(
                        coeff * base.const,
                        tuple((t, coeff * c) for t, c in base.terms),
                    )
            elif coeff == 1:
                return Pow(base, exponent)
        return Mul(coeff, factors)

    def args(self) -> Tuple[Expr, ...]:
        out = []
        if self.coeff != 1:
            out.append(Const(self.coeff))
        out.extend(Pow.of(b, e) for b, e in self.factors)
        return tuple(out)

    def free_symbols(self) -> frozenset:
        out = frozenset()
        for base, exponent in self.factors:
            out |= base.free_symbols() | exponent.free_symbols()
        return out

    def subs(self, mapping) -> Expr:
        parts = [Const(self.coeff)]
        for base, exponent in self.factors:
            parts.append(Pow.of(base.subs(mapping), exponent.subs(mapping)))
        return Mul.of(*parts)

    def _evalf(self, bindings) -> float:
        total = float(self.coeff)
        for base, exponent in self.factors:
            total *= base._evalf(bindings) ** exponent._evalf(bindings)
        return total

    def as_fraction(self) -> Fraction:
        if self.factors:
            raise ValueError(f"{self} is not constant")
        return self.coeff

    def sort_key(self) -> tuple:
        c = self.coeff
        return (3, tuple((b.sort_key(), e.sort_key()) for b, e in self.factors),
                float(c), (c.numerator, c.denominator))


def _pow_parts(expr: Expr) -> Tuple[Expr, Expr]:
    if isinstance(expr, Pow):
        return expr.base, expr.exponent
    return expr, ONE


def _fold_const_pow(base: Fraction, exponent: Expr) -> Expr:
    """Fold base**exponent for rational ``base`` when exact; else a Pow."""
    if base == 1:
        return ONE
    if isinstance(exponent, Const):
        exp = exponent.value
        if exp.denominator == 1:
            n = exp.numerator
            if n >= 0:
                return Const(base**n)
            if base != 0:
                return Const(Fraction(1) / base**(-n))
        else:
            # try exact rational root, e.g. (9/4) ** (1/2) == 3/2
            root = _exact_root(base, exp.denominator)
            if root is not None:
                n = exp.numerator
                if n >= 0:
                    return Const(root**n)
                return Const(Fraction(1) / root**(-n))
    return Pow(Const(base), exponent)


def _exact_root(value: Fraction, k: int):
    """Return the exact k-th root of a positive Fraction, or None."""
    if value <= 0:
        return None

    def iroot(n: int) -> int:
        # integer Newton iteration for the floor k-th root; a float
        # seed would overflow for huge numerators (e.g. deep squared
        # products), so start from a power-of-two upper bound instead
        if n < 2:
            return n
        r = 1 << -(-n.bit_length() // k)
        while True:
            step = ((k - 1) * r + n // r ** (k - 1)) // k
            if step >= r:
                break
            r = step
        return r if r**k == n else -1

    num = iroot(value.numerator)
    den = iroot(value.denominator)
    if num < 0 or den < 0:
        return None
    return Fraction(num, den)


class Pow(Expr):
    """Canonical power ``base ** exponent``.

    Positivity of all symbols justifies ``(b**e1)**e2 -> b**(e1*e2)``.
    """

    __slots__ = ("base", "exponent")

    def __new__(cls, base: Expr, exponent: Expr):
        key = ("pow", base, exponent)
        cached = _INTERN.get(key)
        if cached is not None:
            return cached
        self = object.__new__(cls)
        self.base = base
        self.exponent = exponent
        self._key = key
        self._hash = hash(key)
        return _intern(self)

    def __reduce__(self):
        return (Pow, (self.base, self.exponent))

    @staticmethod
    def of(base: Expr, exponent: Expr) -> Expr:
        base = as_expr(base)
        exponent = as_expr(exponent)
        if isinstance(exponent, Const):
            if exponent.value == 0:
                return ONE
            if exponent.value == 1:
                return base
        if isinstance(base, Const):
            return _fold_const_pow(base.value, exponent)
        if isinstance(base, Pow):
            return Pow.of(base.base, Mul.of(base.exponent, exponent))
        if isinstance(base, Mul):
            # (c * x * y) ** e  ->  c**e * x**e * y**e  (positive operands)
            parts = [Pow.of(Const(base.coeff), exponent)]
            parts.extend(Pow.of(Pow.of(b, e), exponent) for b, e in base.factors)
            return Mul.of(*parts)
        return Pow(base, exponent)

    def free_symbols(self) -> frozenset:
        return self.base.free_symbols() | self.exponent.free_symbols()

    def subs(self, mapping) -> Expr:
        return Pow.of(self.base.subs(mapping), self.exponent.subs(mapping))

    def _evalf(self, bindings) -> float:
        return self.base._evalf(bindings) ** self.exponent._evalf(bindings)

    def sort_key(self) -> tuple:
        return (2, self.base.sort_key(), self.exponent.sort_key())


class _Func(Expr):
    """Base for interpreted n-ary functions (Max, Ceil, ...)."""

    __slots__ = ("fargs",)
    fname = "func"

    def __new__(cls, fargs: Tuple[Expr, ...]):
        key = (cls.fname, fargs)
        cached = _INTERN.get(key)
        if cached is not None:
            return cached
        self = object.__new__(cls)
        self.fargs = fargs
        self._key = key
        self._hash = hash(key)
        return _intern(self)

    def __reduce__(self):
        return (type(self), (self.fargs,))

    def free_symbols(self) -> frozenset:
        out = frozenset()
        for arg in self.fargs:
            out |= arg.free_symbols()
        return out

    def sort_key(self) -> tuple:
        return (5, self.fname, tuple(a.sort_key() for a in self.fargs))


class Max(_Func):
    """max(...) of one or more expressions; folds numeric arguments."""

    __slots__ = ()
    fname = "max"

    @staticmethod
    def of(*args: Union[Expr, Number]) -> Expr:
        exprs = []
        for arg in args:
            expr = as_expr(arg)
            if isinstance(expr, Max):
                exprs.extend(expr.fargs)
            else:
                exprs.append(expr)
        if not exprs:
            raise ValueError("Max needs at least one argument")
        numeric = [e for e in exprs if isinstance(e, Const)]
        symbolic = sorted({e for e in exprs if not isinstance(e, Const)},
                          key=lambda e: e.sort_key())
        if numeric:
            best = max(numeric, key=lambda c: c.value)
            if not symbolic:
                return best
            symbolic = list(symbolic) + [best]
        if len(symbolic) == 1:
            return symbolic[0]
        return Max(tuple(symbolic))

    def subs(self, mapping) -> Expr:
        return Max.of(*(a.subs(mapping) for a in self.fargs))

    def _evalf(self, bindings) -> float:
        return max(a._evalf(bindings) for a in self.fargs)


class Min(_Func):
    """min(...) of one or more expressions; folds numeric arguments."""

    __slots__ = ()
    fname = "min"

    @staticmethod
    def of(*args: Union[Expr, Number]) -> Expr:
        exprs = []
        for arg in args:
            expr = as_expr(arg)
            if isinstance(expr, Min):
                exprs.extend(expr.fargs)
            else:
                exprs.append(expr)
        if not exprs:
            raise ValueError("Min needs at least one argument")
        numeric = [e for e in exprs if isinstance(e, Const)]
        symbolic = sorted({e for e in exprs if not isinstance(e, Const)},
                          key=lambda e: e.sort_key())
        if numeric:
            best = min(numeric, key=lambda c: c.value)
            if not symbolic:
                return best
            symbolic = list(symbolic) + [best]
        if len(symbolic) == 1:
            return symbolic[0]
        return Min(tuple(symbolic))

    def subs(self, mapping) -> Expr:
        return Min.of(*(a.subs(mapping) for a in self.fargs))

    def _evalf(self, bindings) -> float:
        return min(a._evalf(bindings) for a in self.fargs)


class Ceil(_Func):
    """ceil(x); folds rational arguments."""

    __slots__ = ()
    fname = "ceil"

    @staticmethod
    def of(arg: Union[Expr, Number]) -> Expr:
        expr = as_expr(arg)
        if isinstance(expr, Const):
            return Const(math.ceil(expr.value))
        if isinstance(expr, Ceil):
            return expr
        return Ceil((expr,))

    def subs(self, mapping) -> Expr:
        return Ceil.of(self.fargs[0].subs(mapping))

    def _evalf(self, bindings) -> float:
        return float(math.ceil(self.fargs[0]._evalf(bindings) - 1e-12))


class Floor(_Func):
    """floor(x); folds rational arguments."""

    __slots__ = ()
    fname = "floor"

    @staticmethod
    def of(arg: Union[Expr, Number]) -> Expr:
        expr = as_expr(arg)
        if isinstance(expr, Const):
            return Const(math.floor(expr.value))
        if isinstance(expr, Floor):
            return expr
        return Floor((expr,))

    def subs(self, mapping) -> Expr:
        return Floor.of(self.fargs[0].subs(mapping))

    def _evalf(self, bindings) -> float:
        return float(math.floor(self.fargs[0]._evalf(bindings) + 1e-12))


class Log(_Func):
    """Natural logarithm; folds log(1) and stays symbolic otherwise."""

    __slots__ = ()
    fname = "log"

    @staticmethod
    def of(arg: Union[Expr, Number]) -> Expr:
        expr = as_expr(arg)
        if isinstance(expr, Const):
            if expr.value == 1:
                return ZERO
            if expr.value <= 0:
                raise ValueError("log of non-positive constant")
        return Log((expr,))

    def subs(self, mapping) -> Expr:
        return Log.of(self.fargs[0].subs(mapping))

    def _evalf(self, bindings) -> float:
        return math.log(self.fargs[0]._evalf(bindings))


def sqrt(arg: Union[Expr, Number]) -> Expr:
    """Square root via ``x ** (1/2)`` (exact for perfect rational squares)."""
    return Pow.of(as_expr(arg), HALF)
