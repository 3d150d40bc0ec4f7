"""Tests for the lint driver: full pipeline, suppressions, models."""

from repro.check import ERROR, lint_graph, lint_model
from repro.graph import Graph
from repro.models.base import BuiltModel
from repro.ops import matmul, reduce_mean, relu, softmax_cross_entropy
from repro.symbolic import Symbol, as_expr, symbols

b, h = symbols("b h")


def add_orphan(g):
    g.tensor("orphan", (b,))                          # S001


def small_trained_model(extra_ops=None):
    """A real built model: forward + autodiff + SGD updates.

    ``extra_ops(graph)`` adds ops or tensors before the training step
    is built (a finished training step is finalized and takes no
    more).
    """
    g = Graph("tiny")
    x = g.input("x", (b, h))
    labels = g.input("labels", (b,))
    labels.int_bound = as_expr(10)
    w = g.parameter("w", (h, 10))
    logits = matmul(g, x, w, name="logits")
    loss_vec, _ = softmax_cross_entropy(g, logits, labels, name="xent")
    loss = reduce_mean(g, loss_vec, [0], name="loss")
    if extra_ops is not None:
        extra_ops(g)
    model = BuiltModel(domain="test", graph=g, loss=loss,
                       batch=Symbol("b"), size_symbol=Symbol("h"))
    model.with_training_step()
    return model


class TestLintGraph:
    def test_trained_graph_has_no_errors(self):
        model = small_trained_model()
        found = lint_graph(model.graph, loss=model.loss,
                           param_grads=model.meta["param_grads"])
        assert [d for d in found if d.severity == ERROR] == []

    def test_runs_all_pass_families(self):
        # seed one defect per family in a single graph and check each
        # family reports (proving the driver actually runs them all)
        def defects(g):
            w_dead = g.parameter("w_dead", (h, h))
            matmul(g, g.find("x"), w_dead, name="dead_mm")  # G001/G002
            add_orphan(g)

        model = small_trained_model(defects)
        g = model.graph
        found = lint_graph(g, loss=model.loss,
                           param_grads=model.meta["param_grads"])
        assert {d.code for d in found} >= {"S001", "G001", "G002"}

    def test_select_and_ignore(self):
        model = small_trained_model(add_orphan)
        g = model.graph
        found = lint_graph(g, loss=model.loss, select=["S"])
        assert {d.code[0] for d in found} == {"S"}
        found = lint_graph(g, loss=model.loss, ignore=["S001"])
        assert "S001" not in {d.code for d in found}


class TestLintModel:
    def test_uses_recorded_param_grads(self):
        model = small_trained_model()
        assert model.meta["param_grads"]  # recorded by training step
        found = lint_model(model)
        assert [d for d in found if d.severity == ERROR] == []

    def test_meta_suppressions_honored(self):
        model = small_trained_model(add_orphan)
        assert any(d.code == "S001" for d in lint_model(model))
        model.meta["lint_suppress"] = ["S001"]
        assert not any(d.code == "S001" for d in lint_model(model))
