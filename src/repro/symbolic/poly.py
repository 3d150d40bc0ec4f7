"""Flat posynomial core over the expression engine.

The compute-requirement formulas in the paper are *posynomials*: sums of
terms ``c * x1**a1 * ... * xk**ak`` with rational exponents (e.g.
``1755*p + 30784*b*p**(1/2)``).  This module is the canonical internal
form for that fragment: :class:`Poly` stores a sum as flat sparse arrays
— ``(coeff, exponent-vector)`` tuples over an interned atom table — and
its arithmetic (:meth:`Poly.add` / :meth:`Poly.mul` / :meth:`Poly.pow`)
works on those arrays without allocating ``Expr`` nodes.  Non-posynomial subtrees (``max``/``min``/``ceil``/
``floor``/``log``, symbolic exponents, negative/fractional powers of
sums) are carried opaquely as *atoms*, so every expression flattens.

The classic tree-walking entry points keep their signatures and now run
on the flat form:

* :func:`expand` — distribute products over sums,
* :func:`degree` / :func:`coefficient` — per-symbol degree queries,
* :func:`asymptotic_ratio` — ``lim expr_a/expr_b`` as a symbol grows,
* :func:`leading_term` — dominant term for a growing symbol.

The previous recursive implementations live on in ``tests/oracles.py``
as ``_*_treewalk`` oracles for the property-based equivalence suite.

Term order and bit-identity
---------------------------
``Poly.terms`` are sorted by the same total order ``Add`` uses for its
canonical term order (reconstructed without building ``Expr`` nodes),
so :meth:`Poly.to_expr` rebuilds exactly the tree ``expand`` returns.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Dict, Optional, Tuple

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
    _fold_const_pow,
    as_expr,
)

__all__ = [
    "Poly",
    "expand",
    "degree",
    "degrees",
    "coefficient",
    "leading_term",
    "asymptotic_ratio",
    "nonnegative",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _const_sort_key(value: Fraction) -> tuple:
    # mirrors Const.sort_key without allocating the Const
    return (0, float(value), (value.numerator, value.denominator))


class Poly:
    """A flat posynomial: ``sum(coeff * prod(atom ** exp))``.

    ``atoms`` is a tuple of interned ``Expr`` bases sorted by
    ``sort_key`` (symbols, plus opaque non-posynomial subtrees), and
    ``terms`` a tuple of ``(coeff, exps)`` with ``coeff`` a nonzero
    Fraction and ``exps`` a Fraction exponent vector aligned with
    ``atoms``.  Instances are immutable; all arithmetic returns new
    polys and never allocates ``Expr`` nodes.
    """

    __slots__ = ("atoms", "terms")

    def __init__(self, atoms: Tuple[Expr, ...],
                 terms: Tuple[Tuple[Fraction, Tuple[Fraction, ...]], ...]):
        self.atoms = atoms
        self.terms = terms

    # -- constructors --------------------------------------------------
    @staticmethod
    def const(value) -> "Poly":
        value = value if isinstance(value, Fraction) else Fraction(value)
        if value == 0:
            return Poly((), ())
        return Poly((), ((value, ()),))

    @staticmethod
    def atom(base: Expr, exponent: Fraction = _ONE) -> "Poly":
        if exponent == 0:
            return Poly((), ((_ONE, ()),))
        return Poly((base,), ((_ONE, (exponent,)),))

    # -- canonicalization ----------------------------------------------
    @staticmethod
    def _build(atoms: Tuple[Expr, ...],
               termmap: Dict[Tuple[Fraction, ...], Fraction]) -> "Poly":
        """Normalize a {exps: coeff} map over ``atoms`` into a Poly.

        Folds exactly-foldable rational-base atoms into coefficients,
        re-canonicalizes accumulated powers of ``Pow`` atoms (so the
        flat form stays tree-equivalent), drops unused atoms, and sorts
        terms into canonical Add order.
        """
        n = len(atoms)
        if any(isinstance(a, (Const, Pow)) for a in atoms):
            return Poly._build_special(atoms, termmap)

        folded = {e: c for e, c in termmap.items() if c != 0}
        used = [i for i in range(n) if any(e[i] != 0 for e in folded)]
        if len(used) != n:
            atoms = tuple(atoms[i] for i in used)
            remapped: Dict[Tuple[Fraction, ...], Fraction] = {}
            for e, c in folded.items():
                key = tuple(e[i] for i in used)
                remapped[key] = remapped.get(key, _ZERO) + c
            folded = {e: c for e, c in remapped.items() if c != 0}
        terms = [(c, e) for e, c in folded.items()]
        keys = [a.sort_key() for a in atoms]
        terms.sort(key=lambda t: _term_sort_key(keys, t[1]))
        return Poly(atoms, tuple(terms))

    @staticmethod
    def _build_special(atoms, termmap) -> "Poly":
        """Slow-path build for tables holding Const or Pow atoms.

        ``c ** q`` folds into the term coefficient exactly when the
        canonical tree would fold it at construction, and a ``Pow``
        atom (symbolic exponent) raised beyond 1 re-canonicalizes via
        ``Pow.of`` so exponents merge the way the tree merges them.
        """
        norm: Dict[Tuple[Tuple[Expr, Fraction], ...], Fraction] = {}
        for exps, coeff in termmap.items():
            if coeff == 0:
                continue
            powers: Dict[Expr, Fraction] = {
                atoms[i]: e for i, e in enumerate(exps) if e != 0
            }
            for _ in range(len(powers) + 1):
                changed = False
                for atom, e in list(powers.items()):
                    if isinstance(atom, Const):
                        f = _fold_const_pow(atom.value, Const(e))
                        if isinstance(f, Const):
                            coeff *= f.value
                            del powers[atom]
                            changed = True
                    elif isinstance(atom, Pow) and e != 1:
                        rebuilt = Pow.of(atom, Const(e))
                        del powers[atom]
                        if isinstance(rebuilt, Const):
                            coeff *= rebuilt.value
                        else:
                            base, exp = _atom_parts(rebuilt)
                            powers[base] = powers.get(base, _ZERO) + exp
                        changed = True
                if not changed:
                    break
            if coeff == 0:
                continue
            key = tuple(sorted(
                ((a, e) for a, e in powers.items() if e != 0),
                key=lambda ae: ae[0].sort_key(),
            ))
            norm[key] = norm.get(key, _ZERO) + coeff

        table = sorted({a for key in norm for a, _ in key},
                       key=lambda a: a.sort_key())
        index = {a: i for i, a in enumerate(table)}
        folded: Dict[Tuple[Fraction, ...], Fraction] = {}
        for key, coeff in norm.items():
            if coeff == 0:
                continue
            row = [_ZERO] * len(table)
            for a, e in key:
                row[index[a]] = e
            folded[tuple(row)] = coeff
        terms = [(c, e) for e, c in folded.items() if c != 0]
        keys = [a.sort_key() for a in table]
        terms.sort(key=lambda t: _term_sort_key(keys, t[1]))
        return Poly(tuple(table), tuple(terms))

    # -- predicates ----------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    # -- arithmetic ----------------------------------------------------
    def add(self, other: "Poly") -> "Poly":
        atoms, self_map, other_map = _align(self, other)
        out = dict(self_map)
        for exps, coeff in other_map.items():
            out[exps] = out.get(exps, _ZERO) + coeff
        return Poly._build(atoms, out)

    def mul(self, other: "Poly") -> "Poly":
        if self.is_zero or other.is_zero:
            return Poly((), ())
        atoms, self_map, other_map = _align(self, other)
        out: Dict[Tuple[Fraction, ...], Fraction] = {}
        for e1, c1 in self_map.items():
            for e2, c2 in other_map.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                out[exps] = out.get(exps, _ZERO) + c1 * c2
        return Poly._build(atoms, out)

    def pow(self, exponent) -> "Poly":
        """Raise to a rational power.

        Nonnegative integer exponents expand (square-and-multiply over
        exact coefficients); any rational exponent is valid on a
        monomial (exponent vectors scale).  Other cases — a fractional
        or negative power of a genuine sum — have no flat posynomial
        form and raise ``ValueError``; callers fall back to an opaque
        atom (see :func:`_flatten`).
        """
        exponent = exponent if isinstance(exponent, Fraction) \
            else Fraction(exponent)
        if exponent.denominator == 1 and exponent >= 0:
            n = int(exponent)
            result = Poly.const(1)
            base = self
            while n:
                if n & 1:
                    result = result.mul(base)
                n >>= 1
                if n:
                    base = base.mul(base)
            return result
        if self.is_monomial:
            coeff, exps = self.terms[0]
            termmap = {tuple(e * exponent for e in exps): _ONE}
            out = Poly._build(self.atoms, termmap)
            # coeff ** exponent: exact when possible, else an atom
            folded = _fold_const_pow(coeff, Const(exponent))
            if isinstance(folded, Const):
                return out.scale(folded.value)
            return out.mul(Poly.atom(folded.base, folded.exponent.value))
        raise ValueError(
            f"no flat posynomial form for a sum raised to {exponent}"
        )

    def scale(self, coeff: Fraction) -> "Poly":
        if coeff == 0:
            return Poly((), ())
        return Poly(self.atoms,
                    tuple((c * coeff, e) for c, e in self.terms))

    # -- queries -------------------------------------------------------
    def degree(self, sym: Symbol) -> Fraction:
        """Highest degree of ``sym`` across terms (ValueError if the
        poly is not polynomial-like in ``sym``)."""
        best = None
        contrib = [_atom_degree(a, sym) for a in self.atoms]
        for coeff, exps in self.terms:
            d = _ZERO
            for e, unit in zip(exps, contrib):
                if e == 0:
                    continue
                if unit is None:
                    raise ValueError(
                        f"{self.to_expr()} is not polynomial-like in {sym}"
                    )
                d += e * unit
            best = d if best is None else max(best, d)
        return best if best is not None else _ZERO

    def degrees(self) -> "dict[Symbol, Fraction]":
        out: dict = {}
        free = set()
        for atom in self.atoms:
            free |= atom.free_symbols()
        for sym in free:
            out[sym] = self.degree(sym)
        return out

    def coefficient(self, sym: Symbol, power) -> "Poly":
        """Terms of exact degree ``power`` in ``sym``, with sym removed."""
        power = Fraction(power)
        contrib = [_atom_degree(a, sym) for a in self.atoms]
        try:
            sym_idx = self.atoms.index(sym)
        except ValueError:
            sym_idx = -1
        matched: Dict[Tuple[Fraction, ...], Fraction] = {}
        for coeff, exps in self.terms:
            d = _ZERO
            for e, unit in zip(exps, contrib):
                if e == 0:
                    continue
                if unit is None:
                    raise ValueError(
                        f"{self.to_expr()} is not polynomial-like in {sym}"
                    )
                d += e * unit
            if d == power:
                if sym_idx >= 0:
                    exps = tuple(
                        _ZERO if i == sym_idx else e
                        for i, e in enumerate(exps)
                    )
                matched[exps] = matched.get(exps, _ZERO) + coeff
        return Poly._build(self.atoms, matched)

    def free_symbols(self) -> frozenset:
        out = frozenset()
        for atom in self.atoms:
            out |= atom.free_symbols()
        return out

    # -- conversion ----------------------------------------------------
    def to_expr(self) -> Expr:
        """Rebuild the canonical ``Expr`` tree (equal to ``expand``)."""
        parts = []
        for coeff, exps in self.terms:
            factors = [Const(coeff)]
            factors.extend(
                Pow.of(atom, Const(e))
                for atom, e in zip(self.atoms, exps) if e != 0
            )
            parts.append(Mul.of(*factors))
        return Add.of(*parts) if parts else Const(0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.atoms == other.atoms and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.atoms, self.terms))

    def __len__(self) -> int:
        return len(self.terms)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Poly({self.to_expr()!s})"


def _term_sort_key(atom_keys, exps) -> tuple:
    """Sort key of a flat term — equal to the ``sort_key`` of the
    unit-coefficient tree term it rebuilds to, computed without
    building the tree.  The constant term sorts first, matching the
    leading ``const`` slot of a canonical ``Add``."""
    parts = [(atom_keys[i], e) for i, e in enumerate(exps) if e != 0]
    if not parts:
        return (0,)
    if len(parts) == 1:
        key, e = parts[0]
        if e == 1:
            return key
        return (2, key, _const_sort_key(e))
    return (3, tuple(
        (key, _const_sort_key(e) if e != 1 else (0, 1.0, (1, 1)))
        for key, e in parts
    ), 1.0, (1, 1))


def _align(a: Poly, b: Poly):
    """Merge two polys' atom tables; remap both term maps onto it."""
    if a.atoms == b.atoms:
        atoms = a.atoms
        return atoms, dict((e, c) for c, e in a.terms), \
            dict((e, c) for c, e in b.terms)
    merged = sorted(set(a.atoms) | set(b.atoms),
                    key=lambda atom: atom.sort_key())
    index = {atom: i for i, atom in enumerate(merged)}
    n = len(merged)

    def remap(p: Poly):
        slots = [index[atom] for atom in p.atoms]
        out = {}
        for coeff, exps in p.terms:
            row = [_ZERO] * n
            for slot, e in zip(slots, exps):
                row[slot] = e
            out[tuple(row)] = coeff
        return out

    return tuple(merged), remap(a), remap(b)


def _atom_parts(expr: Expr) -> Tuple[Expr, Fraction]:
    """Split a re-canonicalized atom power into (base atom, exponent)."""
    if isinstance(expr, Pow) and isinstance(expr.exponent, Const):
        return expr.base, expr.exponent.value
    return expr, _ONE


def _atom_degree(atom: Expr, sym: Symbol) -> Optional[Fraction]:
    """Degree contribution of one unit of ``atom`` in ``sym``.

    None marks atoms that are not polynomial-like in any symbol they
    contain (mirrors the tree-walk oracle's ``_term_degree`` on the
    equivalent tree term).
    """
    if atom is sym:
        return _ONE
    if isinstance(atom, (Symbol, Const)):
        return _ZERO
    if isinstance(atom, (Max, Min, Ceil, Floor, Log)):
        return None if sym in atom.free_symbols() else _ZERO
    # Pow atoms (symbolic exponent) and Add atoms (unexpandable powers
    # of sums) are non-posynomial outright — in *any* symbol — matching
    # the tree-walk oracle's _term_degree
    return None


# ---------------------------------------------------------------------
# Flattening: Expr -> Poly

@lru_cache(maxsize=1024)
def _flatten(expr: Expr) -> Poly:
    if isinstance(expr, Const):
        return Poly.const(expr.value)
    if isinstance(expr, Symbol):
        return Poly.atom(expr)
    if isinstance(expr, Add):
        acc = Poly.const(expr.const)
        for term, coeff in expr.terms:
            acc = acc.add(_flatten(term).scale(coeff))
        return acc
    if isinstance(expr, Mul):
        acc = Poly.const(expr.coeff)
        for base, exponent in expr.factors:
            acc = acc.mul(_pow_poly(_flatten(base), exponent))
        return acc
    if isinstance(expr, Pow):
        return _pow_poly(_flatten(expr.base), expr.exponent)
    if isinstance(expr, (Max, Min)):
        rebuilt = type(expr).of(*(expand(a) for a in expr.fargs))
        return _atom_or_reflatten(expr, rebuilt)
    if isinstance(expr, (Ceil, Floor, Log)):
        rebuilt = type(expr).of(expand(expr.fargs[0]))
        return _atom_or_reflatten(expr, rebuilt)
    raise TypeError(f"cannot expand {type(expr).__name__}")


def _atom_or_reflatten(original: Expr, rebuilt: Expr) -> Poly:
    if rebuilt is original or type(rebuilt) is type(original):
        return Poly.atom(rebuilt)
    return _flatten(rebuilt)  # folded to something simpler


def _pow_poly(base: Poly, exponent: Expr) -> Poly:
    """``base ** exponent`` with the same expansion policy as the tree:
    nonnegative integer powers distribute, monomials scale, everything
    else stays an opaque atom over the expanded base."""
    if isinstance(exponent, Const):
        e = exponent.value
        try:
            return base.pow(e)
        except ValueError:
            # fractional/negative power of a sum: opaque atom over the
            # expanded base, exactly like Pow.of(expanded_base, e)
            return Poly.atom(base.to_expr(), e)
    # symbolic exponent: expand it, then re-check (expansion can fold
    # an exponent down to a constant, e.g. (x+1)*(x-1) - x*x)
    eexp = expand(exponent)
    if isinstance(eexp, Const):
        return _pow_poly(base, eexp)
    res = Pow.of(base.to_expr(), eexp)
    if isinstance(res, Const):
        return Poly.const(res.value)
    if isinstance(res, Pow):
        return Poly.atom(res)
    return _flatten(res)


# ---------------------------------------------------------------------
# Public treewalk-compatible API (flat-powered)

def expand(expr: Expr) -> Expr:
    """Distribute multiplication over addition, recursively.

    Powers with positive integer exponents over sums expand too:
    ``(a + b)**2 -> a**2 + 2*a*b + b**2``.
    """
    return _flatten(as_expr(expr)).to_expr()


def degree(expr: Expr, sym: Symbol) -> Fraction:
    """Highest degree of ``sym`` across the expanded expression's terms.

    Raises ``ValueError`` when the expression is not a posynomial in
    ``sym`` (e.g. the symbol appears inside ``max`` or ``log``).
    """
    return _flatten(as_expr(expr)).degree(sym)


def degrees(expr: Expr) -> "dict[Symbol, Fraction]":
    """Per-symbol highest degree across all terms, in one expansion.

    Equivalent to ``{s: degree(expr, s) for s in expr.free_symbols()}``
    but flattens once instead of once per symbol — the per-op cost lint
    (``repro.check.costs``) queries every symbol of every op formula.
    Raises ``ValueError`` when any term is not posynomial in a symbol
    it contains.
    """
    p = _flatten(as_expr(expr))
    out: dict = {}
    contrib = {a: {} for a in p.atoms}
    free = p.free_symbols()
    for sym in free:
        best = None
        for coeff, exps in p.terms:
            d = _ZERO
            for atom, e in zip(p.atoms, exps):
                if e == 0:
                    continue
                unit = contrib[atom].get(sym)
                if sym not in contrib[atom]:
                    unit = _atom_degree(atom, sym)
                    contrib[atom][sym] = unit
                if unit is None:
                    raise ValueError(
                        f"{p.to_expr()} is not polynomial-like in {sym}"
                    )
                d += e * unit
            best = d if best is None else max(best, d)
        out[sym] = best if best is not None else _ZERO
    return out


def nonnegative(expr: Expr) -> Optional[bool]:
    """Decide the sign of ``expr`` over positive symbol bindings.

    All repro symbols denote positive quantities, so an expanded sum
    whose constant and term coefficients are all ≥ 0 is provably
    nonnegative (and all ≤ 0 with some < 0 provably takes negative
    values).  Returns ``True``/``False`` for those cases and ``None``
    when the sign is indeterminate by coefficient inspection alone
    (mixed signs, or non-posynomial structure such as ``log``).

    Reads the signs straight off the flat form: the coefficient signs
    of its terms, provided every atom a term uses has a known sign.
    """
    p = _flatten(as_expr(expr))
    used = {i for _, exps in p.terms for i, e in enumerate(exps) if e != 0}
    if any(_term_signs(p.atoms[i]) is None for i in used):
        return None
    return _sign_verdict([1 if c > 0 else -1 for c, _ in p.terms])


def _sign_verdict(signs: Optional[list]) -> Optional[bool]:
    if signs is None:
        return None
    has_neg = any(s < 0 for s in signs)
    has_pos = any(s > 0 for s in signs)
    if not has_neg:
        return True
    if not has_pos:
        return False
    return None


def _term_signs(expr: Expr) -> Optional[list]:
    """Signs of an expanded expression's additive contributions."""
    if isinstance(expr, Add):
        signs = [] if expr.const == 0 else [1 if expr.const > 0 else -1]
        for term, coeff in expr.terms:
            if _term_signs(term) is None:
                return None
            if coeff != 0:
                signs.append(1 if coeff > 0 else -1)
        return signs
    if isinstance(expr, Const):
        v = expr.value
        return [] if v == 0 else [1 if v > 0 else -1]
    if isinstance(expr, Symbol):
        return [1]
    if isinstance(expr, Mul):
        for base, _exponent in expr.factors:
            if _term_signs(base) is None:
                return None
        if expr.coeff == 0:
            return []
        return [1 if expr.coeff > 0 else -1]
    if isinstance(expr, Pow):
        if _term_signs(expr.base) is None:
            return None
        return [1]
    if isinstance(expr, (Max, Min, Ceil, Floor)):
        parts = [_term_signs(a) for a in expr.fargs]
        if any(p is None for p in parts):
            return None
        if all(all(s > 0 for s in p) and p for p in parts):
            return [1]
        return None
    return None  # Log and anything else: sign unknown


def coefficient(expr: Expr, sym: Symbol, power) -> Expr:
    """Sum of terms of exact degree ``power`` in ``sym``, with sym removed.

    ``power`` may be an int or Fraction (e.g. ``Fraction(1, 2)`` for the
    ``sqrt`` coefficient).
    """
    return _flatten(as_expr(expr)).coefficient(sym, power).to_expr()


def leading_term(expr: Expr, sym: Symbol) -> Expr:
    """The sum of highest-degree terms of ``expr`` in ``sym``."""
    d = degree(expr, sym)
    return Mul.of(coefficient(expr, sym, d), Pow.of(sym, Const(d)))


def asymptotic_ratio(numerator: Expr, denominator: Expr, sym: Symbol) -> Expr:
    """``lim numerator/denominator`` as ``sym`` → ∞ for posynomials.

    Returns 0 when the denominator dominates; raises ``OverflowError``
    when the numerator dominates (the limit is infinite); otherwise
    returns the (possibly symbolic) ratio of leading coefficients.
    """
    num = _flatten(as_expr(numerator))
    den = _flatten(as_expr(denominator))
    dn = num.degree(sym)
    dd = den.degree(sym)
    if dn < dd:
        return Const(0)
    if dn > dd:
        raise OverflowError(
            f"limit of ({num.to_expr()})/({den.to_expr()}) in {sym} "
            f"diverges (degree {dn} > {dd})"
        )
    return Mul.of(
        num.coefficient(sym, dn).to_expr(),
        Pow.of(den.coefficient(sym, dd).to_expr(), Const(-1)),
    )
