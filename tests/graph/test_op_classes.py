"""Op classes: ops grouped by cost signature cost exactly the same.

Every per-op cost loop (aggregates, the cache model, stage splits,
profiles, the C/I lint passes) evaluates one representative per class,
so the soundness of the grouping is what keeps those numbers exact.
"""

import pytest

from repro import obs
from repro.graph import Graph, Op, Tensor, validate_graph
from repro.graph.traversal import size_program, skeleton
from repro.hardware.cache import _matmul_like_dims
from repro.models import build_word_lm
from repro.models.registry import DOMAINS, build_symbolic
from repro.ops import matmul, sigmoid, tanh
from repro.ops.pointwise import UnaryOp
from repro.symbolic import symbols

b, h = symbols("b h")


@pytest.mark.parametrize("key", sorted(DOMAINS))
def test_class_members_cost_what_their_representative_costs(key):
    graph = build_symbolic(key).graph
    classes = graph.op_classes()
    assert len(classes) < len(graph.ops)
    position = {id(op): i for i, op in enumerate(graph.ops)}
    # a partition of the ops, in order of first appearance
    assert len({id(op) for _, members in classes for op in members}) \
        == sum(len(members) for _, members in classes) == len(graph.ops)
    firsts = [position[id(rep)] for rep, _ in classes]
    assert firsts == sorted(firsts)
    for rep, members in classes:
        assert members[0] is rep
        order = [position[id(op)] for op in members]
        assert order == sorted(order)
        flops, byts = rep.flops(), rep.bytes_accessed()
        dims = _matmul_like_dims(rep)
        for op in members:
            assert op.flops() is flops, (rep.name, op.name)
            assert op.bytes_accessed() is byts, (rep.name, op.name)
            assert _matmul_like_dims(op) == dims, (rep.name, op.name)


def test_classes_follow_first_appearance():
    g = Graph("gates")
    x = g.input("x", (b, h))
    s1 = sigmoid(g, x)
    t1 = tanh(g, x)
    s2 = sigmoid(g, x)
    reps = [rep for rep, _ in g.op_classes()]
    assert reps == [s1.producer, t1.producer]
    assert g.op_classes()[0][1] == [s1.producer, s2.producer]


def test_unfinalized_graph_picks_up_later_ops():
    g = Graph("grow")
    x = g.input("x", (b, h))
    sigmoid(g, x)
    assert len(g.op_classes()) == 1
    sigmoid(g, x)
    assert [len(m) for _, m in g.op_classes()] == [2]
    tanh(g, x)  # same shapes, different function: its own class
    assert [len(m) for _, m in g.op_classes()] == [2, 1]
    assert g.total_flops() == 14 * b * h


def test_finalized_graph_rejects_ops_and_memoizes_classes():
    g = Graph("frozen")
    x = g.input("x", (b, h))
    w = g.parameter("w", (h, h))
    matmul(g, x, w)
    assert g.finalize() is g
    classes = g.op_classes()
    with pytest.raises(ValueError, match="finalized"):
        matmul(g, x, w)
    assert len(g.ops) == 1
    assert g.op_classes() is classes


def test_training_step_finalizes_the_graph():
    graph = build_symbolic("image").graph
    x = graph.inputs()[0]
    # built by hand so the shared registry graph gains no tensor
    late = UnaryOp("late", "sigmoid", x, Tensor("late:out", x.shape))
    with pytest.raises(ValueError, match="finalized"):
        graph.add_op(late)


def test_finalized_graph_memoizes_derived_state():
    graph = build_symbolic("image").graph
    assert size_program(graph) is size_program(graph)
    assert graph.total_flops() is graph.total_flops()
    assert graph.total_bytes_accessed() is graph.total_bytes_accessed()
    skeleton(graph)
    misses = obs.counter("graph.skeleton.cache.miss").value
    hits = obs.counter("graph.skeleton.cache.hit").value
    assert skeleton(graph) is skeleton(graph)
    assert obs.counter("graph.skeleton.cache.miss").value == misses
    assert obs.counter("graph.skeleton.cache.hit").value == hits + 2
    with pytest.raises(ValueError, match="finalized"):
        graph.tensor("late", (b,))
    by_geometry = {}
    for t in graph.tensors.values():
        by_geometry.setdefault((t.shape, t.dtype_bytes), []).append(t)
    first, second = next(ts for ts in by_geometry.values()
                         if len(ts) > 1)[:2]
    assert first.size_bytes() is second.size_bytes()
    assert first.num_elements() is second.num_elements()


def test_unfinalized_graph_rebuilds_derived_state():
    g = Graph("open")
    x = g.input("x", (b, h))
    sigmoid(g, x)
    misses = obs.counter("graph.size_program.cache.miss").value
    assert size_program(g) is not size_program(g)
    assert obs.counter("graph.size_program.cache.miss").value \
        == misses + 2


def test_training_step_builds_no_traversal_skeleton():
    # forward, autodiff, finalize and validate all read the op list as
    # it was built; none needs the skeleton the schedulers use
    misses = obs.counter("graph.skeleton.cache.miss").value
    model = build_word_lm(seq_len=3, vocab=40, layers=1)
    validate_graph(model.graph)
    assert obs.counter("graph.skeleton.cache.miss").value == misses


class PassOp(Op):
    kind = "pass"


def _wiring(g):
    return ([(t.name, t.producer, list(t.consumers))
             for t in g.tensors.values()], list(g.ops))


@pytest.mark.parametrize("case", ["produced", "read", "self_loop",
                                  "twice"])
def test_refused_op_leaves_the_graph_unchanged(case):
    g = Graph("refuse")
    x = g.input("x", (b,))
    done = g.tensor("done", (b,))
    read = g.tensor("read", (b,))
    fresh = g.tensor("fresh", (b,))
    g.add_op(PassOp("first", [x], [done]))
    g.add_op(PassOp("reader", [read], [g.tensor("sink", (b,))]))
    before = _wiring(g)
    inputs, outputs = {
        "produced": ([x], [fresh, done]),
        "read": ([x], [fresh, read]),
        "self_loop": ([x, fresh], [fresh]),
        "twice": ([x], [fresh, fresh]),
    }[case]
    with pytest.raises(ValueError, match="already"):
        g.add_op(PassOp("bad", inputs, outputs))
    assert _wiring(g) == before
