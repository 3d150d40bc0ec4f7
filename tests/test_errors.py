"""Tests for the pipeline-wide error taxonomy (repro.errors)."""

import pickle

import pytest

from repro.errors import (
    EXIT_ERROR,
    EXIT_OK,
    EXIT_RESUMABLE,
    BindingError,
    InternalError,
    NumericError,
    ReproError,
    ReproIOError,
    RunInterrupted,
    SolveError,
    did_you_mean,
    error_context,
    render_error,
)


class TestTaxonomy:
    def test_stable_codes(self):
        assert BindingError("x").code == "E-BIND"
        assert SolveError("x").code == "E-SOLVE"
        assert NumericError("x").code == "E-NUMERIC"
        assert ReproIOError("x").code == "E-IO"
        assert RunInterrupted("x").code == "E-INT"
        assert InternalError("x").code == "E-INT"

    def test_exit_codes(self):
        assert (EXIT_OK, EXIT_ERROR, EXIT_RESUMABLE) == (0, 1, 3)

    def test_backcompat_builtin_bases(self):
        # seed callers catch ValueError (unbound symbol) and KeyError
        # (unknown domain); the taxonomy must not break them
        assert isinstance(BindingError("x"), ValueError)
        assert isinstance(BindingError("x"), KeyError)
        assert isinstance(SolveError("x"), ValueError)
        assert isinstance(NumericError("x"), ArithmeticError)

    def test_str_is_not_keyerror_repr(self):
        # KeyError.__str__ repr-quotes; ours must stay a paragraph
        assert str(BindingError("unbound symbol 'h'")).startswith(
            "[E-BIND] unbound symbol 'h'"
        )


class TestContextChain:
    def test_frames_accumulate_innermost_first(self):
        err = BindingError("boom").add_context(size=1024)
        with pytest.raises(BindingError) as info:
            with error_context(exhibit="table3"):
                with error_context(model="word_lm"):
                    raise err
        chain = info.value.context_chain()
        assert chain == ({"size": 1024}, {"model": "word_lm"},
                         {"exhibit": "table3"})

    def test_summary_outermost_first_innermost_wins(self):
        err = ReproError("x")
        err.add_context(model="inner", size=1)
        err.add_context(model="outer", exhibit="fig7")
        assert err.context_summary() == "model=inner exhibit=fig7 size=1"

    def test_error_context_ignores_foreign_exceptions(self):
        with pytest.raises(RuntimeError):
            with error_context(model="word_lm"):
                raise RuntimeError("not ours")


class TestRender:
    def test_render_includes_code_context_hint(self):
        err = BindingError("unknown domain 'wordlm'",
                           hint="did you mean 'word_lm'?")
        err.add_context(exhibit="table1")
        text = err.render()
        assert "[E-BIND]" in text
        assert "(while evaluating: exhibit=table1)" in text
        assert "Hint: did you mean 'word_lm'?" in text

    def test_solve_error_renders_diagnostics(self):
        err = SolveError("no bracket",
                         diagnostics={"lo": 1.0, "hi": 2.0})
        assert "[diagnostics: hi=2.0, lo=1.0]" in err.render()

    def test_render_error_foreign_exception(self):
        assert render_error(RuntimeError("boom")) == "[RuntimeError] boom"


class TestPickling:
    def test_round_trip_preserves_everything(self):
        err = SolveError("no convergence", hint="loosen tol",
                         diagnostics={"iterations": 200})
        err.add_context(model="nmt")
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is SolveError
        assert back.message == "no convergence"
        assert back.hint == "loosen tol"
        assert back.diagnostics == {"iterations": 200}
        assert back.context_chain() == ({"model": "nmt"},)

    def test_custom_init_subclass_round_trips(self):
        # GraphValidationError takes (graph_name, problems), not
        # (message); __reduce__ must not depend on the signature
        from repro.graph.validate import GraphValidationError

        err = GraphValidationError("g", ["dangling tensor t0"])
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is GraphValidationError
        assert back.problems == ["dangling tensor t0"]
        assert back.code == "E-GRAPH"

    def test_run_interrupted_round_trips_pending(self):
        err = RunInterrupted("stopped", pending=("a", "b"))
        back = pickle.loads(pickle.dumps(err))
        assert back.pending == ("a", "b")


class TestDidYouMean:
    def test_close_match(self):
        assert "word_lm" in did_you_mean("word_ml",
                                         ["word_lm", "char_lm"])

    def test_no_match_returns_none(self):
        assert did_you_mean("zzzzzz", ["word_lm", "char_lm"]) is None


class TestRegistryBoundary:
    def test_unknown_domain_is_bind_error_with_hint(self):
        from repro.models.registry import get_domain

        with pytest.raises(BindingError) as info:
            get_domain("wordlm")
        assert "word_lm" in (info.value.hint or "")
        # seed compat: callers catching KeyError still work
        with pytest.raises(KeyError):
            get_domain("wordlm")


@pytest.mark.parametrize("key", ["word_lm", "char_lm", "nmt",
                                 "speech", "image"])
class TestAcceptanceAllDomains:
    """ISSUE acceptance: malformed bindings and forced numeric/solver
    failures across all five registry models surface as ReproError
    subclasses with a populated context chain."""

    def _counts(self, key):
        from repro.analysis.counters import StepCounts
        from repro.models.registry import build_symbolic

        return StepCounts(build_symbolic(key))

    def test_nonpositive_size_is_bind_error_naming_model(self, key):
        counts = self._counts(key)
        with pytest.raises(BindingError) as info:
            counts.bind(size=-8)
        assert info.value.code == "E-BIND"
        assert info.value.context_summary() == f"model={key}"

    def test_bad_dtype_subbatch_is_bind_error(self, key):
        counts = self._counts(key)
        # (None is not here: it means "leave the symbol unbound")
        for bad in ("64", True, float("nan"), float("inf"), 0, -3):
            with pytest.raises(BindingError):
                counts.bind(size=64, subbatch=bad)

    def test_artifact_task_failure_carries_context(self, key):
        from repro.exec.tasks import artifact_config

        with pytest.raises(BindingError) as info:
            artifact_config(key, float("inf"))
        summary = info.value.context_summary()
        assert f"model={key}" in summary
        assert "size=inf" in summary

    def test_forced_numeric_failure_is_numeric_error(self, key):
        counts = self._counts(key)
        program = counts.compiled("step_flops")
        entry_size = {"word_lm": 1e160, "char_lm": 1e160, "nmt": 1e160,
                      "speech": 1e160, "image": 1e160}[key]
        with pytest.raises(NumericError) as info:
            program(counts.bind(entry_size, 64))
        assert info.value.code == "E-NUMERIC"

    def test_forced_solver_failure_is_solve_error(self, key):
        from repro.symbolic import bisect_increasing

        with pytest.raises(SolveError) as info:
            with error_context(model=key, stage="test_solver"):
                bisect_increasing(lambda x: float("nan"), 10.0, 0.0,
                                  1.0)
        assert info.value.code == "E-SOLVE"
        assert f"model={key}" in info.value.context_summary()
