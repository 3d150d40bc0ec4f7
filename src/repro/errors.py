"""Pipeline-wide error taxonomy: stable codes + context chains.

Every failure the analysis pipeline can produce for a *user* reason —
a malformed binding, a solver that cannot bracket its root, a tape
that overflowed, a broken graph, an unwritable output — is raised as a
:class:`ReproError` subclass carrying:

* a **stable code** (``E-BIND``, ``E-SOLVE``, ``E-NUMERIC``,
  ``E-GRAPH``, ``E-IO``, ``E-EXEC``, ``E-INT``) that scripts and CI
  can match on without parsing prose;
* a **context chain** — ``(model → exhibit → symbol bindings)`` frames
  attached by :func:`error_context` as the error unwinds through the
  sweep/planner/artifact layers, so the message says *which* unit of a
  long batch run was being evaluated;
* an optional **hint** — the actionable "what to do about it" line
  (a did-you-mean, a flag to pass, a bound to respect).

The CLIs render these as one short paragraph via :meth:`render`; the
raw traceback stays behind ``--debug``.  For backward compatibility
with the seed API the subclasses also inherit the builtin exception
the seed raised (``ValueError``/``KeyError``), so existing
``except ValueError`` callers and tests keep working.

Exit codes (documented in the README's Troubleshooting section):
``0`` success, ``1`` error (any :class:`ReproError`), ``3``
resumable interrupt (graceful SIGINT/SIGTERM shutdown — rerun the same
command, and the result store answers the work that finished).
"""

from __future__ import annotations

import difflib
from contextlib import contextmanager
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = [
    "ReproError", "BindingError", "SolveError", "NumericError",
    "ReproIOError", "RunInterrupted", "InternalError", "BusyError",
    "DeadlineError", "WorkerCrashError", "error_context", "did_you_mean",
    "render_error", "EXIT_OK", "EXIT_ERROR", "EXIT_RESUMABLE",
]

#: process exit codes for the CLIs (see README "Troubleshooting")
EXIT_OK = 0
EXIT_ERROR = 1
EXIT_RESUMABLE = 3


def _rebuild_error(cls, args, state):
    """Unpickle hook: rebuild without calling subclass ``__init__``.

    Subclasses are free to take richer constructor signatures (e.g.
    ``GraphValidationError(graph_name, problems)``); errors cross the
    process-pool boundary, so reconstruction must not depend on them.
    """
    err = cls.__new__(cls)
    err.args = tuple(args)
    err.__dict__.update(state)
    return err


class ReproError(Exception):
    """Base of the taxonomy; see the module docstring.

    ``context`` is a list of ``{field: value}`` frames, innermost
    first — each :func:`error_context` the error unwound through
    appended one.
    """

    code = "E-REPRO"

    def __init__(self, message: str, *, hint: Optional[str] = None,
                 context: Optional[Iterable[Mapping[str, Any]]] = None):
        super().__init__(message)
        self.message = message
        self.hint = hint
        self.context: List[Dict[str, Any]] = [
            dict(frame) for frame in (context or [])
        ]

    # -- context chain -------------------------------------------------
    def add_context(self, **fields: Any) -> "ReproError":
        """Append one frame (innermost frames come first)."""
        if fields:
            self.context.append(fields)
        return self

    def context_chain(self) -> Tuple[Dict[str, Any], ...]:
        """The attached frames, innermost first."""
        return tuple(self.context)

    def context_summary(self) -> str:
        """``model=word_lm exhibit=table3 size=1024`` (outermost first)."""
        seen: Dict[str, Any] = {}
        # outermost frames name the run unit; innermost refine it, and
        # the innermost value wins for a repeated field
        for frame in reversed(self.context):
            for field, value in frame.items():
                seen[field] = value
        return " ".join(f"{k}={v}" for k, v in seen.items())

    # -- rendering -----------------------------------------------------
    def render(self) -> str:
        """One actionable paragraph: code, message, context, hint."""
        parts = [f"[{self.code}] {self.message}"]
        summary = self.context_summary()
        if summary:
            parts.append(f"(while evaluating: {summary})")
        if self.hint:
            parts.append(f"Hint: {self.hint}")
        return " ".join(parts)

    def __str__(self) -> str:
        # defined here so subclasses that also inherit KeyError do not
        # pick up KeyError.__str__ (which repr-quotes the message)
        return self.render()

    # -- pickling (errors cross the repro.exec pool boundary) ----------
    def __reduce__(self):
        return (_rebuild_error,
                (type(self), self.args, self.__dict__.copy()))


class BindingError(ReproError, ValueError, KeyError):
    """E-BIND: a symbol binding is malformed, unknown, or out of range.

    Also a ``ValueError`` (the seed's unbound-symbol error) and a
    ``KeyError`` (the seed's unknown-domain error) so pre-taxonomy
    callers keep catching it.
    """

    code = "E-BIND"


class SolveError(ReproError, ValueError):
    """E-SOLVE: root finding failed — bad bracket, no convergence, or
    an unreachable target (with the expansion/convergence diagnostics
    attached as ``diagnostics``)."""

    code = "E-SOLVE"

    def __init__(self, message: str, *, hint: Optional[str] = None,
                 context=None,
                 diagnostics: Optional[Mapping[str, Any]] = None):
        super().__init__(message, hint=hint, context=context)
        self.diagnostics: Dict[str, Any] = dict(diagnostics or {})

    def render(self) -> str:
        base = super().render()
        if self.diagnostics:
            detail = ", ".join(f"{k}={v}"
                               for k, v in sorted(self.diagnostics.items()))
            base = f"{base} [diagnostics: {detail}]"
        return base


class NumericError(ReproError, ArithmeticError):
    """E-NUMERIC: a tape replay produced NaN/Inf (overflow, 0/0, …)."""

    code = "E-NUMERIC"


class ReproIOError(ReproError):
    """E-IO: an output file or store directory is unusable."""

    code = "E-IO"


class RunInterrupted(ReproError):
    """E-INT: the run was stopped by a graceful SIGINT/SIGTERM drain.

    Not a failure: completed work is in the result store and the CLI
    exits with :data:`EXIT_RESUMABLE` (3), so rerunning the same
    command recomputes only what did not finish.  ``results`` carries
    the task results completed before the drain.
    """

    code = "E-INT"

    def __init__(self, message: str, *, results=None, pending=(),
                 hint: Optional[str] = None, context=None):
        if hint is None:
            hint = ("rerun the same command; the result store answers "
                    "the work that finished")
        super().__init__(message, hint=hint, context=context)
        self.results = dict(results or {})
        self.pending = tuple(pending)


class InternalError(ReproError, RuntimeError):
    """E-INT: a self-check of the program failed.

    The program, not its input, is at fault: a derived result
    disagreed with the direct computation it stands for, so no number
    is returned.  The message names what was checked.
    """

    code = "E-INT"


class BusyError(ReproError):
    """E-BUSY: the server shed this request under overload.

    Raised when the compute gate's admission queue is full or a rate
    limit is exceeded.  ``retry_after`` is the advisory
    wait in seconds before retrying; the HTTP layer maps the error to
    status 429 and surfaces it as a ``Retry-After`` header.
    """

    code = "E-BUSY"

    def __init__(self, message: str, *, retry_after: float = 1.0,
                 hint: Optional[str] = None, context=None):
        super().__init__(message, hint=hint, context=context)
        self.retry_after = float(retry_after)

    def render(self) -> str:
        return (f"{super().render()} "
                f"[retry after {self.retry_after:g}s]")


class DeadlineError(ReproError):
    """E-DEADLINE: the request's wall-clock budget expired mid-work.

    Raised cooperatively by :func:`repro.deadline.check_deadline` from
    the sweep/solver/planner inner loops.  ``progress`` carries the
    partial-progress diagnostics (stage reached, units completed,
    elapsed budget) so a 504 body tells the caller how far the work
    got before the budget ran out.
    """

    code = "E-DEADLINE"

    def __init__(self, message: str, *, hint: Optional[str] = None,
                 context=None,
                 progress: Optional[Mapping[str, Any]] = None):
        super().__init__(message, hint=hint, context=context)
        self.progress: Dict[str, Any] = dict(progress or {})

    def render(self) -> str:
        base = super().render()
        if self.progress:
            detail = ", ".join(f"{k}={v}"
                               for k, v in sorted(self.progress.items()))
            base = f"{base} [progress: {detail}]"
        return base


class WorkerCrashError(ReproError):
    """E-EXEC: a pool worker died mid-computation (segfault, OOM kill).

    The supervisor restarts the pool with exponential backoff; the
    request that was on the dead worker surfaces this error — the HTTP
    layer maps it to a structured 503 instead of letting the crash
    take down the listener.
    """

    code = "E-EXEC"


@contextmanager
def error_context(**fields: Any):
    """Attach ``fields`` to any :class:`ReproError` unwinding through.

    Layers wrap their unit of work (``model=``, ``exhibit=``,
    ``stage=``, bindings…); a failure deep in the numerics surfaces
    with the whole chain attached::

        with error_context(model="word_lm", exhibit="table3"):
            ...  # any ReproError raised below gains this frame
    """
    try:
        yield
    except ReproError as err:
        err.add_context(**fields)
        raise


def did_you_mean(name: str, candidates: Iterable[str], *,
                 n: int = 3) -> Optional[str]:
    """A ``did you mean 'x'?`` hint fragment, or None when nothing is
    close enough to suggest."""
    matches = difflib.get_close_matches(str(name), sorted(candidates),
                                        n=n, cutoff=0.5)
    if not matches:
        return None
    quoted = ", ".join(f"'{m}'" for m in matches)
    return f"did you mean {quoted}?"


def render_error(error: BaseException) -> str:
    """Render any exception for the CLI boundary.

    :class:`ReproError` renders its paragraph; anything else gets the
    class name + message (the raw traceback stays behind ``--debug``).
    """
    if isinstance(error, ReproError):
        return error.render()
    return f"[{type(error).__name__}] {error}"
