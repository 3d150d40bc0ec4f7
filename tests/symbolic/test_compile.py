"""Tests for the compiled (tape) expression evaluator.

The contract: compiled scalar evaluation is bit-identical to the
recursive tree walk, vectorized evaluation matches within 1e-9
relative, and batch compilation shares subtrees across expressions.
"""

import math

import numpy as np
import pytest

from repro.symbolic import (
    Ceil,
    Floor,
    Log,
    Max,
    Min,
    compile_batch,
    compile_expr,
    sqrt,
    symbols,
)

h, b, v = symbols("h b v")

#: exercises every node kind: Add/Mul/Pow with rational coefficients,
#: Max/Min/Ceil/Floor/Log, negative and fractional exponents
KITCHEN_SINK = (
    16 * h**2 * 3
    + 2 * h * v
    + Max.of(h, 2 * b)
    + Min.of(h, v)
    + Ceil.of(h / b)
    + Floor.of(v / 3)
    + Log.of(h)
    + sqrt(h)
    + 1 / h
    - b / 7
)


class TestScalarEvaluation:
    def test_bit_identical_to_evalf(self):
        program = compile_expr(KITCHEN_SINK)
        for binding in (
            {h: 512, b: 96, v: 10000},
            {h: 3, b: 1, v: 7},
            {h: 2.5, b: 0.5, v: 1.0},
        ):
            assert program(binding) == KITCHEN_SINK.evalf(binding)

    def test_name_keyed_bindings(self):
        program = compile_expr(h * b + 1)
        assert program({"h": 3, "b": 4}) == 13.0
        assert program({h: 3, "b": 4}) == 13.0

    def test_constant_expression_needs_no_bindings(self):
        program = compile_expr(sqrt(9) + 1)
        assert program() == 4.0
        assert program.symbols == ()

    def test_unbound_symbol_raises(self):
        program = compile_expr(h + b)
        with pytest.raises(ValueError, match="unbound symbol"):
            program({h: 1})

    def test_ceil_floor_epsilon_behavior(self):
        """Compiled Ceil/Floor must keep the ±1e-12 guard of evalf."""
        ceil_prog = compile_expr(Ceil.of(h))
        floor_prog = compile_expr(Floor.of(h))
        for x in (3.0 + 1e-13, 3.0 - 1e-13, 3.0 + 1e-9, 3.0 - 1e-9, 3.0):
            assert ceil_prog({h: x}) == Ceil.of(h).evalf({h: x})
            assert floor_prog({h: x}) == Floor.of(h).evalf({h: x})
        # the guard absorbs float fuzz just below/above an integer
        assert ceil_prog({h: 3.0 + 1e-13}) == 3.0
        assert floor_prog({h: 3.0 - 1e-13}) == 3.0

    def test_max_min_log(self):
        e = Max.of(h * b, v) + Min.of(h, b) + Log.of(v)
        program = compile_expr(e)
        binding = {h: 2, b: 3, v: 100}
        assert program(binding) == e.evalf(binding)
        assert program(binding) == pytest.approx(100 + 2 + math.log(100))


class TestVectorizedEvaluation:
    def test_rows_match_scalar(self):
        program = compile_expr(KITCHEN_SINK)
        rows = [{h: s, b: 96, v: 10000} for s in (128, 256, 512, 1024)]
        out = program.eval_many(rows)
        expected = np.array([KITCHEN_SINK.evalf(r) for r in rows])
        assert out.shape == (4,)
        np.testing.assert_allclose(out, expected, rtol=1e-9)

    def test_column_mapping_broadcasts_fixed_symbols(self):
        program = compile_expr(KITCHEN_SINK)
        out_cols = program.eval_many({h: [128, 256, 512], b: 96, v: 10000})
        out_rows = program.eval_many(
            [{h: s, b: 96, v: 10000} for s in (128, 256, 512)]
        )
        np.testing.assert_array_equal(out_cols, out_rows)

    def test_unbound_column_raises(self):
        program = compile_expr(h + b)
        with pytest.raises(ValueError, match="unbound symbol"):
            program.eval_many({h: [1, 2]})

    def test_mismatched_column_lengths_raise(self):
        program = compile_expr(h + b)
        with pytest.raises(ValueError, match="length"):
            program.eval_many({h: [1, 2, 3], b: [1, 2]})


class TestBatchCompilation:
    def test_outputs_align_with_inputs(self):
        exprs = [h * h, h * h + b, (h * h + b) * v]
        batch = compile_batch(exprs)
        binding = {h: 5, b: 2, v: 3}
        assert batch(binding) == [e.evalf(binding) for e in exprs]

    def test_cse_shares_subtrees(self):
        """h*h appears in all three expressions but is compiled once:
        the shared tape must be far smaller than three separate ones."""
        exprs = [h * h, h * h + b, (h * h + b) * v]
        batch = compile_batch(exprs)
        separate = sum(len(compile_expr(e)) for e in exprs)
        assert len(batch) < separate

    def test_eval_many_matrix_shape(self):
        exprs = [h + b, h * b]
        batch = compile_batch(exprs)
        out = batch.eval_many([{h: 1, b: 2}, {h: 3, b: 4}])
        np.testing.assert_array_equal(out, [[3.0, 2.0], [7.0, 12.0]])

        # column layout over the kitchen sink agrees with a scalar loop
        batch = compile_batch([KITCHEN_SINK, h * v + b])
        cols = {"h": np.array([2.0, 512.0, 7.5]),
                "b": np.array([1.0, 96.0, 0.5]),
                "v": np.array([3.0, 10000.0, 1.0])}
        out = batch.eval_many(cols)
        assert out.shape == (3, 2)
        for i in range(3):
            binding = {k: float(col[i]) for k, col in cols.items()}
            np.testing.assert_allclose(out[i], batch(binding), rtol=1e-9)

    def test_duplicate_expressions_share_one_slot(self):
        batch = compile_batch([h + b, h + b])
        assert batch.out_slots[0] == batch.out_slots[1]
        assert batch({h: 1, b: 1}) == [2.0, 2.0]


class TestDomainGraphsProperty:
    """For every registered domain: compiled and vectorized evaluation
    of the training-step aggregates and tensor sizes must match the
    recursive tree walk within 1e-9 relative over a (size, subbatch)
    grid — including the Max/Min/Ceil/Floor/Log nodes the conv/pool
    models produce."""

    @pytest.mark.parametrize("key", ["word_lm", "image"])
    def test_aggregates_match_treewalk(self, key):
        from repro.analysis.counters import StepCounts
        from repro.models.registry import build_symbolic, get_domain

        entry = get_domain(key)
        counts = StepCounts(build_symbolic(key))
        sizes = list(entry.sweep_sizes)[:2]
        subbatches = [1, entry.subbatch]

        aggregates = ("params", "step_flops", "step_bytes",
                      "flops_per_sample", "bytes_fixed", "bytes_per_sample")
        program = counts.compiled(*aggregates)
        rows = [counts.bind(s, sb) for s in sizes for sb in subbatches]
        table = program.eval_many(rows)
        for r, binding in enumerate(rows):
            for j, name in enumerate(aggregates):
                reference = getattr(counts, name).evalf(binding)
                assert program(binding)[j] == reference  # scalar: exact
                assert table[r, j] == pytest.approx(reference, rel=1e-9)

    @pytest.mark.parametrize("key", ["word_lm", "image"])
    def test_tensor_sizes_match_treewalk(self, key):
        from repro.graph.traversal import evaluate_sizes
        from tests.oracles import _evaluate_sizes_treewalk
        from repro.models.registry import build_symbolic, get_domain

        entry = get_domain(key)
        model = build_symbolic(key)
        binding = {model.size_symbol: list(entry.sweep_sizes)[0],
                   model.batch: entry.subbatch}
        assert evaluate_sizes(model.graph, binding) == \
            _evaluate_sizes_treewalk(model.graph, binding)


class TestEvalfFn:
    def test_compiled_closure_matches_expr(self):
        from repro.symbolic import evalf_fn

        e = KITCHEN_SINK
        fn = evalf_fn(e, h, fixed={b: 96, "v": 10000})
        for x in (16.0, 512.0, 4096.0):
            assert fn(x) == e.evalf({h: x, b: 96, v: 10000})

    def test_constant_in_symbol(self):
        from repro.symbolic import evalf_fn

        fn = evalf_fn(b * 2, h, fixed={b: 5})
        assert fn(1.0) == 10.0
        assert fn(99.0) == 10.0

    def test_missing_fixed_symbol_raises_on_call(self):
        from repro.symbolic import evalf_fn

        fn = evalf_fn(h * v, h, fixed={})
        with pytest.raises(ValueError, match="unbound symbol"):
            fn(2.0)


class TestPickleRoundTrip:
    """Compiled tapes ship to repro.exec pool workers, so they must
    survive pickling with bit-identical behavior."""

    def test_scalar_program_survives(self):
        import pickle

        program = compile_expr(KITCHEN_SINK)
        clone = pickle.loads(pickle.dumps(program))
        binding = {h: 512, b: 96, v: 10000}
        assert clone(binding) == program(binding)
        assert len(clone) == len(program)

    def test_batch_program_and_eval_many_survive(self):
        import pickle

        program = compile_batch([KITCHEN_SINK, h * b + v, sqrt(h)])
        clone = pickle.loads(pickle.dumps(program))
        rows = [{h: 64, b: 8, v: 100}, {h: 2048, b: 96, v: 50257}]
        np.testing.assert_array_equal(clone.eval_many(rows),
                                      program.eval_many(rows))

    def test_symbol_index_rebuilt(self):
        # the derived _sym_index is dropped by __reduce__ and must be
        # reconstructed so name-keyed bindings still resolve
        import pickle

        clone = pickle.loads(pickle.dumps(compile_expr(h * b)))
        assert clone({"h": 3, "b": 4}) == 12.0
        assert clone.slot_of(h) == clone.slot_of("h")
