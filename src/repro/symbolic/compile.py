"""Compiled expression evaluation: CSE'd slot-based instruction tapes.

:meth:`Expr.evalf` is a recursive tree walk that re-resolves every
symbol through a dict probe at every node, on every call.  The analysis
pipeline evaluates the *same* expressions at thousands of bindings
(every tensor of a graph at every sweep size), so this module lowers
expressions once into a flat postorder instruction tape and replays the
tape:

* **Common-subexpression elimination** — expressions are hash-consed by
  structural key, so a dict from node to slot deduplicates shared
  subtrees.  :func:`compile_batch` shares one CSE table across many
  expressions; the tensor-size expressions of an unrolled recurrent
  graph share most of their subtrees, and the batch tape is a fraction
  of the summed tree sizes.
* **Symbol slot indexing** — free symbols are resolved to integer slots
  once at compile time.  At evaluation the bindings mapping (keyed by
  ``Symbol`` or by name) is flattened to a vector in one pass at the
  boundary; the tape itself never touches a dict.
* **Vectorized evaluation** — :meth:`CompiledExpr.eval_many` replays
  the tape with numpy over an N×S binding matrix, evaluating all N
  configurations of a sweep in one pass per instruction.

The scalar path performs the same float operations in the same order as
the recursive ``evalf``, so single-binding results are bit-identical;
the vectorized path agrees to within a few ULP (numpy's SIMD ``log``
may differ in the last place — consumers tolerate 1e-9 relative).
"""

from __future__ import annotations

import math
import numbers
import warnings
from contextlib import contextmanager
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import BindingError, NumericError, did_you_mean
from ..obs.metrics import counter as _obs_counter
from ..obs.tracer import TRACER as _TRACER
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
)

__all__ = ["CompiledExpr", "compile_expr", "compile_batch",
           "numeric_guard", "set_numeric_policy", "numeric_policy"]

# Compile-time observability: tapes built, instructions emitted, and
# instructions *avoided* by CSE (a slot lookup that found the subtree
# already compiled).  Compiles are rare (cached by every consumer), so
# these count once per tape, not per evaluation.
_TAPES = _obs_counter("symbolic.compile.tapes")
_INSTRUCTIONS = _obs_counter("symbolic.compile.instructions")
_CSE_REUSED = _obs_counter("symbolic.compile.cse_reused")

# Numeric sentinels: every tape replay checks its outputs for NaN/Inf
# (overflowed ``h**2`` terms, 0/0 intensities, log of a non-positive
# dimension).  The policy decides what a violation does.
_GUARD_CHECKS = _obs_counter("guard.numeric.checks")
_GUARD_VIOLATIONS = _obs_counter("guard.numeric.violations")

#: 'raise' -> NumericError (E-NUMERIC), 'warn' -> RuntimeWarning and
#: the value flows through, 'off' -> seed behaviour (no check)
_NUMERIC_POLICY = "raise"


def numeric_policy() -> str:
    """The active NaN/Inf sentinel policy ('raise' | 'warn' | 'off')."""
    return _NUMERIC_POLICY


def set_numeric_policy(policy: str) -> str:
    """Set the sentinel policy; returns the previous one."""
    global _NUMERIC_POLICY
    if policy not in ("raise", "warn", "off"):
        raise ValueError(
            f"unknown numeric policy {policy!r} "
            "(expected 'raise', 'warn', or 'off')"
        )
    previous = _NUMERIC_POLICY
    _NUMERIC_POLICY = policy
    return previous


@contextmanager
def numeric_guard(policy: str):
    """Scoped :func:`set_numeric_policy` (restores on exit)."""
    previous = set_numeric_policy(policy)
    try:
        yield
    finally:
        set_numeric_policy(previous)

# Tape opcodes.  Every instruction writes exactly one value; the slot of
# instruction i is i, so the tape doubles as its own register file.
_CONST = 0   # payload: float value
_SYM = 1     # payload: input-vector index
_ADD = 2     # payload: (const, ((slot, coeff), ...))
_MUL = 3     # payload: (coeff, ((base_slot, exp_slot, exp_is_one), ...))
_POW = 4     # payload: (base_slot, exp_slot)
_MAX = 5     # payload: (slot, ...)
_MIN = 6     # payload: (slot, ...)
_CEIL = 7    # payload: slot
_FLOOR = 8   # payload: slot
_LOG = 9     # payload: slot


def _binding_float(name: str, value) -> float:
    """Coerce one binding value, raising E-BIND on a bad dtype/value."""
    if (isinstance(value, (bool, str, bytes)) or value is None
            or not isinstance(value, numbers.Real)):
        # strings are rejected even when float() would parse them: a
        # str reaching a tape means a CLI/config layer forgot to parse
        raise BindingError(
            f"binding for {name!r} must be a real number, got "
            f"{type(value).__name__} {value!r}",
            hint="bind symbols to ints/floats (dimensions, sizes, "
                 "subbatches), not strings or flags",
        )
    try:
        result = float(value)
    except (TypeError, ValueError, OverflowError) as error:
        raise BindingError(
            f"binding for {name!r} must be a real number, got "
            f"{type(value).__name__} {value!r}",
        ) from error
    if not math.isfinite(result):
        raise BindingError(
            f"binding for {name!r} must be finite, got {result!r}",
        )
    return result


def _unbound_symbol(name: str, bindings: Mapping) -> BindingError:
    """E-BIND for a missing symbol, with a did-you-mean over the keys
    that *were* provided (a misspelled key leaves its target unbound)."""
    provided = [
        key.name if isinstance(key, Symbol) else str(key)
        for key in bindings
    ]
    return BindingError(
        f"unbound symbol {name!r} in evalf",
        hint=did_you_mean(name, provided)
        or f"bind {name!r} (provided: {sorted(provided) or 'nothing'})",
    )


def _child_exprs(expr: Expr) -> Tuple[Expr, ...]:
    """Subexpressions that must be compiled before ``expr``."""
    if isinstance(expr, (Const, Symbol)):
        return ()
    if isinstance(expr, Add):
        return tuple(term for term, _ in expr.terms)
    if isinstance(expr, Mul):
        out: List[Expr] = []
        for base, exponent in expr.factors:
            out.append(base)
            out.append(exponent)
        return tuple(out)
    if isinstance(expr, Pow):
        return (expr.base, expr.exponent)
    if isinstance(expr, (Max, Min, Ceil, Floor, Log)):
        return expr.fargs
    raise TypeError(f"cannot compile expression node {type(expr).__name__}")


class _Compiler:
    """Builds one tape; shared across expressions for batch CSE."""

    def __init__(self) -> None:
        self.code: List[Tuple[int, object]] = []
        self.slots: Dict[Expr, int] = {}
        self.symbols: List[Symbol] = []
        self.sym_index: Dict[str, int] = {}
        #: subtree compilations avoided because the slot already existed
        self.reused = 0

    def _emit(self, expr: Expr, opcode: int, payload: object) -> int:
        slot = len(self.code)
        self.code.append((opcode, payload))
        self.slots[expr] = slot
        return slot

    def _instruction(self, expr: Expr) -> int:
        """Emit the instruction for ``expr`` (children already compiled)."""
        slots = self.slots
        if isinstance(expr, Const):
            return self._emit(expr, _CONST, float(expr.value))
        if isinstance(expr, Symbol):
            idx = self.sym_index.get(expr.name)
            if idx is None:
                idx = len(self.symbols)
                self.sym_index[expr.name] = idx
                self.symbols.append(expr)
            return self._emit(expr, _SYM, idx)
        if isinstance(expr, Add):
            payload = (
                float(expr.const),
                tuple((slots[term], float(coeff)) for term, coeff in expr.terms),
            )
            return self._emit(expr, _ADD, payload)
        if isinstance(expr, Mul):
            factors = []
            for base, exponent in expr.factors:
                is_one = isinstance(exponent, Const) and exponent.value == 1
                factors.append((slots[base], slots[exponent], is_one))
            return self._emit(expr, _MUL, (float(expr.coeff), tuple(factors)))
        if isinstance(expr, Pow):
            return self._emit(expr, _POW, (slots[expr.base], slots[expr.exponent]))
        if isinstance(expr, Max):
            return self._emit(expr, _MAX, tuple(slots[a] for a in expr.fargs))
        if isinstance(expr, Min):
            return self._emit(expr, _MIN, tuple(slots[a] for a in expr.fargs))
        if isinstance(expr, Ceil):
            return self._emit(expr, _CEIL, slots[expr.fargs[0]])
        if isinstance(expr, Floor):
            return self._emit(expr, _FLOOR, slots[expr.fargs[0]])
        if isinstance(expr, Log):
            return self._emit(expr, _LOG, slots[expr.fargs[0]])
        raise TypeError(f"cannot compile expression node {type(expr).__name__}")

    def add(self, expr: Expr) -> int:
        """Compile ``expr`` (reusing shared subtrees), return its slot."""
        if expr in self.slots:
            self.reused += 1
            return self.slots[expr]
        # Iterative postorder: expressions are wide rather than deep,
        # but an explicit stack keeps huge aggregates safe regardless.
        stack: List[Tuple[Expr, bool]] = [(expr, False)]
        while stack:
            node, expanded = stack.pop()
            if node in self.slots:
                if not expanded:
                    self.reused += 1
                continue
            if expanded:
                self._instruction(node)
            else:
                stack.append((node, True))
                for child in _child_exprs(node):
                    if child not in self.slots:
                        stack.append((child, False))
        return self.slots[expr]


class CompiledExpr:
    """One or more expressions lowered to a shared instruction tape.

    ``__call__(bindings)`` evaluates at one binding (a mapping keyed by
    ``Symbol`` or by symbol name) and returns a float — or a list of
    floats when compiled with :func:`compile_batch`.  ``eval_many``
    evaluates N bindings at once with numpy and returns an ``(N,)`` or
    ``(N, n_out)`` array.
    """

    __slots__ = ("code", "symbols", "out_slots", "_sym_index", "_single")

    def __init__(self, code: Sequence[Tuple[int, object]],
                 symbols: Sequence[Symbol],
                 out_slots: Sequence[int], *, single: bool):
        self.code = tuple(code)
        self.symbols = tuple(symbols)
        self.out_slots = tuple(out_slots)
        self._sym_index = {s.name: i for i, s in enumerate(self.symbols)}
        self._single = single

    # -- binding resolution (the single dict-probe boundary) -----------
    def slot_of(self, sym: Union[Symbol, str]) -> int:
        """Input-vector index of a free symbol (KeyError if not free)."""
        name = sym.name if isinstance(sym, Symbol) else sym
        return self._sym_index[name]

    def bind_vector(self, bindings: Optional[Mapping] = None, *,
                    partial: bool = False) -> List[Optional[float]]:
        """Flatten a Symbol- or name-keyed mapping to the input vector.

        Each free symbol is resolved with at most two probes *once per
        call*, not once per occurrence per eval.  With ``partial=True``
        unbound symbols stay ``None`` (fill them in before evaluating).
        """
        bindings = bindings or {}
        vec: List[Optional[float]] = [None] * len(self.symbols)
        for i, sym in enumerate(self.symbols):
            if sym in bindings:
                vec[i] = _binding_float(sym.name, bindings[sym])
            elif sym.name in bindings:
                vec[i] = _binding_float(sym.name, bindings[sym.name])
            elif not partial:
                raise _unbound_symbol(sym.name, bindings)
        return vec

    def bind_matrix(self, rows) -> np.ndarray:
        """Resolve N bindings to an N×S float matrix.

        ``rows`` is either a sequence of mappings (one per
        configuration) or a single mapping from symbol/name to an
        N-vector of values (column layout).
        """
        if isinstance(rows, Mapping):
            columns = []
            for sym in self.symbols:
                if sym in rows:
                    col = np.asarray(rows[sym], dtype=float)
                elif sym.name in rows:
                    col = np.asarray(rows[sym.name], dtype=float)
                else:
                    raise _unbound_symbol(sym.name, rows)
                columns.append(np.atleast_1d(col))
            if not columns:
                return np.zeros((1, 0))
            n = max(c.shape[0] for c in columns)
            for sym, col in zip(self.symbols, columns):
                if col.shape[0] not in (1, n):
                    raise ValueError(
                        f"binding column for {sym.name!r} has length "
                        f"{col.shape[0]}, expected 1 or {n}"
                    )
            return np.column_stack(
                [np.broadcast_to(c, (n,)) for c in columns]
            )
        mat = np.empty((len(rows), len(self.symbols)), dtype=float)
        for r, binding in enumerate(rows):
            mat[r, :] = self.bind_vector(binding)
        return mat

    # -- evaluation ----------------------------------------------------
    def eval_vector(self, vec: Sequence[Optional[float]]):
        """Replay the tape at one already-resolved input vector."""
        try:
            return self._eval_vector(vec)
        except (OverflowError, ZeroDivisionError) as error:
            # python-float arithmetic raises instead of producing
            # inf/nan, so the post-replay finiteness check never sees
            # the value; fold the hard failure into the same guard
            if _NUMERIC_POLICY == "off":
                raise
            self._replay_failure(error, vec)

    def _eval_vector(self, vec: Sequence[Optional[float]]):
        vals: List[float] = [0.0] * len(self.code)
        for i, (opcode, payload) in enumerate(self.code):
            if opcode == _ADD:
                const, terms = payload
                v = const
                for slot, coeff in terms:
                    v += coeff * vals[slot]
            elif opcode == _MUL:
                coeff, factors = payload
                v = coeff
                for base, exponent, is_one in factors:
                    v *= vals[base] if is_one else vals[base] ** vals[exponent]
            elif opcode == _SYM:
                v = vec[payload]
                if v is None:
                    raise BindingError(
                        f"unbound symbol {self.symbols[payload].name!r} "
                        "in evalf",
                        hint="fill every slot of a partial bind_vector "
                             "before replaying the tape",
                    )
            elif opcode == _CONST:
                v = payload
            elif opcode == _POW:
                v = vals[payload[0]] ** vals[payload[1]]
            elif opcode == _MAX:
                v = max(vals[s] for s in payload)
            elif opcode == _MIN:
                v = min(vals[s] for s in payload)
            elif opcode == _CEIL:
                v = float(math.ceil(vals[payload] - 1e-12))
            elif opcode == _FLOOR:
                v = float(math.floor(vals[payload] + 1e-12))
            else:  # _LOG
                v = math.log(vals[payload])
            vals[i] = v
        if _NUMERIC_POLICY != "off":
            _GUARD_CHECKS.inc()
            for j, slot in enumerate(self.out_slots):
                if not math.isfinite(vals[slot]):
                    self._numeric_violation(vals[slot], j, vec)
                    break
        if self._single:
            return vals[self.out_slots[0]]
        return [vals[s] for s in self.out_slots]

    def _numeric_violation(self, value, out_index: int, vec) -> None:
        """Apply the sentinel policy to one non-finite output."""
        _GUARD_VIOLATIONS.inc()
        kind = "NaN" if (isinstance(value, float)
                         and math.isnan(value)) else "overflow/Inf"
        inputs = ", ".join(
            f"{sym.name}={vec[i]:g}"
            for i, sym in enumerate(self.symbols)
            if vec[i] is not None
        ) or "(no inputs)"
        message = (
            f"tape replay produced a non-finite value ({kind}) for "
            f"output {out_index + 1} of {len(self.out_slots)}; "
            f"inputs: {inputs}"
        )
        if _NUMERIC_POLICY == "warn":
            warnings.warn(message, RuntimeWarning, stacklevel=3)
            return
        raise NumericError(
            message,
            hint="the bindings push an aggregate past the float "
                 "range (or into 0/0); shrink the sweep sizes, or "
                 "evaluate under numeric_guard('warn') to inspect "
                 "the non-finite series",
        )

    def _replay_failure(self, error: BaseException, vec) -> None:
        """A replay instruction raised outright (scalar overflow, 0/0).

        Unlike a non-finite *output*, there is no value to return, so
        even the ``warn`` policy must raise — but as E-NUMERIC with the
        bound inputs named, not a bare ``OverflowError`` from the
        middle of a tape.
        """
        _GUARD_VIOLATIONS.inc()
        inputs = ", ".join(
            f"{sym.name}={vec[i]:g}"
            for i, sym in enumerate(self.symbols)
            if vec[i] is not None
        ) or "(no inputs)"
        raise NumericError(
            f"tape replay overflowed the float range "
            f"({type(error).__name__}: {error}); inputs: {inputs}",
            hint="the bindings push an intermediate past ~1e308; "
                 "shrink the sweep sizes",
        ) from error

    def __call__(self, bindings: Optional[Mapping] = None):
        return self.eval_vector(self.bind_vector(bindings))

    def eval_many(self, rows) -> np.ndarray:
        """Vectorized replay over N bindings (see :meth:`bind_matrix`)."""
        mat = self.bind_matrix(rows)
        # numpy warns-and-continues on overflow; the post-replay
        # finiteness guard is the single reporting point, so keep
        # numpy quiet here
        with np.errstate(over="ignore", invalid="ignore",
                         divide="ignore"):
            return self._eval_many(mat)

    def _eval_many(self, mat: np.ndarray) -> np.ndarray:
        n = mat.shape[0]
        vals: List[object] = [None] * len(self.code)
        for i, (opcode, payload) in enumerate(self.code):
            if opcode == _ADD:
                const, terms = payload
                v = const
                for slot, coeff in terms:
                    v = v + coeff * vals[slot]
            elif opcode == _MUL:
                coeff, factors = payload
                v = coeff
                for base, exponent, is_one in factors:
                    v = v * (vals[base] if is_one
                             else vals[base] ** vals[exponent])
            elif opcode == _SYM:
                v = mat[:, payload]
            elif opcode == _CONST:
                v = payload
            elif opcode == _POW:
                v = vals[payload[0]] ** vals[payload[1]]
            elif opcode == _MAX:
                v = vals[payload[0]]
                for s in payload[1:]:
                    v = np.maximum(v, vals[s])
            elif opcode == _MIN:
                v = vals[payload[0]]
                for s in payload[1:]:
                    v = np.minimum(v, vals[s])
            elif opcode == _CEIL:
                v = np.ceil(vals[payload] - 1e-12)
            elif opcode == _FLOOR:
                v = np.floor(vals[payload] + 1e-12)
            else:  # _LOG
                v = np.log(vals[payload])
            vals[i] = v
        out = np.empty((n, len(self.out_slots)), dtype=float)
        for j, slot in enumerate(self.out_slots):
            out[:, j] = vals[slot]
        if _NUMERIC_POLICY != "off":
            _GUARD_CHECKS.inc()
            finite = np.isfinite(out)
            if not finite.all():
                rows, cols = np.nonzero(~finite)
                r, j = int(rows[0]), int(cols[0])
                self._numeric_violation(
                    float(out[r, j]), j, list(mat[r, :])
                )
        if self._single:
            return out[:, 0]
        return out

    # -- pickling ------------------------------------------------------
    # Tapes can cross process boundaries (pool workers, the on-disk
    # result store), so the pickle payload is the tape proper: code,
    # symbols, and output slots.  ``_sym_index`` is derived state,
    # rebuilt by __init__ on load instead of serialized.
    def __reduce__(self):
        return (_rebuild_compiled, (self.code, self.symbols,
                                    self.out_slots, self._single))

    # -- introspection -------------------------------------------------
    def __len__(self) -> int:
        return len(self.code)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CompiledExpr({len(self.code)} instrs, "
                f"{len(self.symbols)} symbols, "
                f"{len(self.out_slots)} outputs)")


def _rebuild_compiled(code, symbols, out_slots, single) -> "CompiledExpr":
    """Unpickle hook for :class:`CompiledExpr` (module-level for pickle)."""
    return CompiledExpr(code, symbols, out_slots, single=single)


def _record_compile(span, comp: _Compiler, n_exprs: int) -> None:
    _TAPES.inc()
    _INSTRUCTIONS.inc(len(comp.code))
    _CSE_REUSED.inc(comp.reused)
    span.set(exprs=n_exprs, instructions=len(comp.code),
             symbols=len(comp.symbols), cse_reused=comp.reused)


def compile_expr(expr: Expr) -> CompiledExpr:
    """Lower one expression to a tape; ``prog(bindings)`` -> float."""
    with _TRACER.span("symbolic.compile", "compile") as span:
        comp = _Compiler()
        out = comp.add(expr)
        _record_compile(span, comp, 1)
        return CompiledExpr(comp.code, comp.symbols, (out,), single=True)


def compile_batch(exprs: Sequence[Expr]) -> CompiledExpr:
    """Lower many expressions into ONE tape with a shared CSE table.

    Subtrees common across expressions are evaluated once per binding;
    ``prog(bindings)`` returns a list of floats aligned with ``exprs``,
    ``prog.eval_many(rows)`` an ``(N, len(exprs))`` array.
    """
    with _TRACER.span("symbolic.compile", "compile") as span:
        comp = _Compiler()
        outs = [comp.add(e) for e in exprs]
        _record_compile(span, comp, len(exprs))
        return CompiledExpr(comp.code, comp.symbols, outs, single=False)
