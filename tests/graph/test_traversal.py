"""Unit tests for traversal, liveness, and footprint schedules."""

import pytest

from repro.graph import (
    Graph,
    Op,
    evaluate_sizes,
    liveness_peak,
    liveness_trace,
    memory_greedy_order,
    topological_order,
)
from repro.ops import add, matmul, relu
from repro.symbolic import symbols

b, h = symbols("b h")


class PassOp(Op):
    """Trivial op for hand-built test graphs."""

    kind = "pass"

    def __init__(self, name, inputs, outputs):
        super().__init__(name, inputs, outputs)


def rewired_cycle_graph():
    """x -> op1 -> t1 -> op2 -> t2, then op1 rewired to read t2 instead
    of x behind ``add_op``'s back (consumer lists kept consistent)."""
    g = Graph("cyclic")
    x = g.input("x", (1,))
    t1 = g.tensor("t1", (1,))
    t2 = g.tensor("t2", (1,))
    op1 = g.add_op(PassOp("op1", [x], [t1]))
    g.add_op(PassOp("op2", [t1], [t2]))
    op1.inputs = (t2,)
    x.consumers.remove(op1)
    t2.consumers.append(op1)
    return g


def diamond_graph():
    """x -> (left, right) -> join; all tensors 1 element."""
    g = Graph("diamond")
    x = g.input("x", (1,))
    left = g.tensor("left", (1,))
    right = g.tensor("right", (1,))
    join = g.tensor("join", (1,))
    g.add_op(PassOp("op_l", [x], [left]))
    g.add_op(PassOp("op_r", [x], [right]))
    g.add_op(PassOp("op_j", [left, right], [join]))
    return g


class TestTopologicalOrder:
    def test_respects_dependencies(self):
        g = diamond_graph()
        order = topological_order(g)
        pos = {op.name: i for i, op in enumerate(order)}
        assert pos["op_j"] > pos["op_l"]
        assert pos["op_j"] > pos["op_r"]

    def test_deterministic_program_order(self):
        g = diamond_graph()
        order = topological_order(g)
        assert [op.name for op in order] == ["op_l", "op_r", "op_j"]

    def test_cycle_detected(self):
        """``add_op`` refuses the op that would close a cycle, so the op
        list stays a topological order."""
        g = Graph("cyclic")
        t1 = g.tensor("t1", (1,))
        t2 = g.tensor("t2", (1,))
        t3 = g.tensor("t3", (1,))
        g.add_op(PassOp("op1", [t2], [t1]))
        with pytest.raises(ValueError,
                           match="op op2 produces tensor t2, which op1 "
                                 "already reads"):
            g.add_op(PassOp("op2", [t1], [t2]))
        with pytest.raises(ValueError,
                           match="op loop produces tensor t3, which loop "
                                 "already reads"):
            g.add_op(PassOp("loop", [t3], [t3]))
        assert [op.name for op in topological_order(g)] == ["op1"]

    def test_full_model_toposort(self):
        g = Graph("mlp")
        x = g.input("x", (b, h))
        w = g.parameter("w", (h, h))
        y = relu(g, matmul(g, x, w))
        order = topological_order(g)
        assert len(order) == len(g.ops)


class TestLiveness:
    def test_peak_of_chain(self):
        """A chain a->b->c of 8-byte tensors peaks at 16 transient bytes."""
        g = Graph("chain")
        a = g.input("a", (2,))
        t1 = g.tensor("t1", (2,))
        t2 = g.tensor("t2", (2,))
        g.add_op(PassOp("op1", [a], [t1]))
        g.add_op(PassOp("op2", [t1], [t2]))
        sizes = evaluate_sizes(g)
        peak = liveness_peak(g, topological_order(g), sizes)
        # input (8) persistent + at most t1+t2 (16) live together
        assert peak == 8 + 16

    def test_persistent_weights_always_counted(self):
        g = Graph("w")
        x = g.input("x", (b, h))
        w = g.parameter("w", (h, h))
        matmul(g, x, w)
        sizes = evaluate_sizes(g, {b: 2, h: 3})
        peak = liveness_peak(g, topological_order(g), sizes)
        # x (24) + w (36) persistent + output (24) live
        assert peak == 24 + 36 + 24

    def test_tensor_freed_after_last_consumer(self):
        """Wide fan-out then join: x stays live until both consumers run."""
        g = diamond_graph()
        sizes = evaluate_sizes(g)
        peak = liveness_peak(g, topological_order(g), sizes)
        # x persistent-ish (graph input), left+right live at once, join
        assert peak == 4 + 4 + 4 + 4

    def test_trace_is_live_bytes_per_position(self):
        """The peak is the trace's maximum; each entry counts the
        persistent bytes, the op's outputs and what is still live."""
        g = diamond_graph()
        sizes = evaluate_sizes(g)
        order = topological_order(g)
        trace = liveness_trace(g, order, sizes)
        assert len(trace) == len(order)
        assert max(trace) == liveness_peak(g, order, sizes)
        assert trace == [4 + 4, 4 + 4 + 4, 4 + 4 + 4 + 4]


class TestMemoryGreedy:
    def test_greedy_never_worse_on_models(self):
        from repro.models import build_word_lm

        model = build_word_lm(seq_len=5, vocab=200, layers=1)
        g = model.graph
        sizes = evaluate_sizes(g, {"b": 4, "h": 16})
        program = liveness_peak(g, topological_order(g), sizes)
        greedy = liveness_peak(g, memory_greedy_order(g, sizes), sizes)
        assert greedy <= program

    def test_greedy_is_valid_topological_order(self):
        g = diamond_graph()
        sizes = evaluate_sizes(g)
        order = memory_greedy_order(g, sizes)
        seen = set()
        for op in order:
            for t in op.inputs:
                if t.producer is not None:
                    assert t.producer in seen
            seen.add(op)
        assert len(order) == len(g.ops)

    def test_greedy_cycle_detected(self):
        g = rewired_cycle_graph()
        with pytest.raises(ValueError, match="cycle"):
            memory_greedy_order(g, evaluate_sizes(g))

    def test_greedy_matches_reference_scan(self):
        """The incremental-heap schedule must equal the seed O(V·ready)
        rescan op for op — same order, not merely same peak."""
        from tests.oracles import _memory_greedy_order_reference
        from repro.models import build_nmt, build_resnet, build_word_lm

        cases = [
            (build_word_lm(seq_len=6, vocab=120, layers=2),
             ({"b": 4, "h": 16}, {"b": 64, "h": 48})),
            (build_nmt(seq_len=4, vocab=90, enc_layers=1, dec_layers=1),
             ({"b": 4, "h": 16}, {"b": 32, "h": 40})),
            (build_resnet(depth=18, image_size=32, classes=10),
             ({"b": 2, "w": 1}, {"b": 16, "w": 2})),
        ]
        for model, bindings in cases:
            g = model.graph
            for binding in bindings:
                sizes = evaluate_sizes(g, binding)
                fast = memory_greedy_order(g, sizes)
                reference = _memory_greedy_order_reference(g, sizes)
                assert [op.name for op in fast] == \
                    [op.name for op in reference], (g.name, binding)

    def test_program_order_footprint_builds_no_greedy_tables(
            self, monkeypatch):
        """Only the greedy scheduler reads its tables: a footprint that
        skips it (a graph past GREEDY_OP_LIMIT) leaves them unbuilt on
        the memoized skeleton."""
        from repro.analysis.footprint import estimate_footprint
        from repro.graph.traversal import skeleton
        from repro.models import build_word_lm

        model = build_word_lm(seq_len=4, vocab=100, layers=1)
        model.with_training_step()
        binding = {"b": 4, "h": 16}
        with monkeypatch.context() as patch:
            patch.setattr("repro.analysis.footprint.GREEDY_OP_LIMIT", 0)
            estimate_footprint(model, binding)
        sk = skeleton(model.graph)
        assert sk.greedy is None
        estimate_footprint(model, binding)
        assert skeleton(model.graph) is sk
        assert sk.greedy is not None

    def test_greedy_matches_reference_on_diamond(self):
        from tests.oracles import _memory_greedy_order_reference

        g = diamond_graph()
        sizes = evaluate_sizes(g)
        assert memory_greedy_order(g, sizes) == \
            _memory_greedy_order_reference(g, sizes)


class TestEvaluateSizes:
    def test_concrete_bindings(self):
        g = Graph()
        t = g.tensor("t", (b, h))
        sizes = evaluate_sizes(g, {b: 3, h: 5})
        assert sizes[t] == 60

    def test_unbound_symbol_raises(self):
        g = Graph()
        g.tensor("t", (b,))
        with pytest.raises(ValueError):
            evaluate_sizes(g)

    def test_matches_treewalk_reference(self):
        from tests.oracles import _evaluate_sizes_treewalk
        from repro.models import build_word_lm

        g = build_word_lm(seq_len=5, vocab=200,
                          layers=1).with_training_step().graph
        binding = {"b": 8, "h": 32}
        assert evaluate_sizes(g, binding) == \
            _evaluate_sizes_treewalk(g, binding)

    def test_evaluate_sizes_many_matches_scalar(self):
        from repro.graph.traversal import evaluate_sizes_many

        g = Graph()
        g.tensor("t", (b, h))
        g.tensor("u", (h, h))
        rows = [{b: 3, h: 5}, {b: 7, h: 11}]
        assert evaluate_sizes_many(g, rows) == \
            [evaluate_sizes(g, r) for r in rows]

    def test_program_recompiles_when_graph_grows(self):
        g = Graph()
        t = g.tensor("t", (b,))
        assert evaluate_sizes(g, {b: 2})[t] == 8
        u = g.tensor("u", (b, b))
        sizes = evaluate_sizes(g, {b: 3})
        assert sizes[u] == 36 and sizes[t] == 12
