"""Tests for the lint driver: full pipeline, suppressions, models,
and the filter that decides which passes run."""

import itertools

import pytest

from repro.check import (ERROR, SOLVER_KEY, DataflowIndex,
                         filter_diagnostics, lint_graph, lint_model,
                         lint_registry)
from repro.check import driver
from repro.graph import Graph, Op
from repro.models.base import BuiltModel
from repro.ops import matmul, reduce_mean, relu, softmax_cross_entropy
from repro.symbolic import Const, Mul, Symbol, as_expr, symbols

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


class SuperlinearOp(Op):
    kind = "superlinear"

    def flops(self):
        x = self.inputs[0]                            # C003: h^2
        return Mul.of(x.num_elements(), x.shape[1])


class NegativeFlopsOp(Op):
    kind = "negflops"

    def flops(self):                                  # I001
        return self.inputs[0].num_elements() + Const(-100000)


def planted_defects(g):
    x = g.find("x")
    w_dead = g.parameter("w_dead", (h, h))
    matmul(g, x, w_dead, name="dead_mm")              # G001/G002
    add_orphan(g)                                     # S001
    g.add_op(SuperlinearOp("sup", [x], [g.tensor("sup:out", (b, h))]))
    g.add_op(NegativeFlopsOp("neg", [x], [g.tensor("neg:out", (b, h))]))


#: the driver's pass per family, by the module-level name it calls
PASSES = {"S": "structural_diagnostics", "G": "dataflow_diagnostics",
          "C": "cost_diagnostics", "A": "autodiff_diagnostics",
          "T": "_tape_diagnostics", "I": "interval_diagnostics"}


@pytest.fixture
def spied(monkeypatch):
    """Record which passes (and DataflowIndex builds) the driver runs."""
    calls = []
    for family, name in PASSES.items():
        def spy(*args, _family=family, _real=getattr(driver, name),
                **kwargs):
            calls.append(_family)
            return _real(*args, **kwargs)
        monkeypatch.setattr(driver, name, spy)

    def index(*args, **kwargs):
        calls.append("index")
        return DataflowIndex(*args, **kwargs)

    monkeypatch.setattr(driver, "DataflowIndex", index)
    return calls


class TestPassGate:
    """The filter decides which passes run, not only what is kept."""

    @pytest.mark.parametrize("family", sorted(PASSES))
    def test_select_runs_only_that_family(self, spied, family):
        model = small_trained_model()
        lint_model(model, select=[family])
        index = ["index"] if family in "GA" else []
        assert spied == index + [family]

    def test_rule_code_runs_its_family(self, spied):
        lint_model(small_trained_model(), select=["C003", "T004"])
        assert spied == ["C", "T"]

    def test_ignore_and_suppress_skip_a_family(self, spied):
        model = small_trained_model()
        lint_model(model, ignore=["C", "G"])
        assert spied == ["index", "S", "A", "T", "I"]
        spied.clear()
        model.meta["lint_suppress"] = ["I", "T"]
        lint_model(model, ignore=["G001", "G002", "G003", "A"])
        assert spied == ["S", "C"]

    def test_unfiltered_runs_every_family(self, spied):
        lint_model(small_trained_model())
        assert spied == ["index", "S", "G", "C", "A", "T", "I"]

    def test_registry_skips_the_solver_unless_m_can_pass(
            self, monkeypatch):
        from repro.check import solver_lint
        from repro.models import registry

        solved = []
        monkeypatch.setattr(solver_lint, "solver_diagnostics",
                            lambda: solved.append(1) or [])
        monkeypatch.setattr(registry, "build_symbolic",
                            lambda key, training=True: key)
        monkeypatch.setattr(driver, "lint_model",
                            lambda model, select=None, ignore=(): [])
        out = lint_registry(select=["S"])
        assert solved == []
        assert out[SOLVER_KEY] == []
        assert set(out) == set(registry.DOMAINS) | {SOLVER_KEY}
        lint_registry(select=["S", "M002"])
        lint_registry(ignore=["M001"])
        assert solved == [1, 1]

    def test_registry_builds_no_model_when_no_graph_family_can_pass(
            self, monkeypatch):
        from repro.models import registry

        built = []
        monkeypatch.setattr(registry, "build_symbolic",
                            lambda key, training=True: built.append(key))
        out = lint_registry(select=["M"])
        assert built == []
        assert set(out) == set(registry.DOMAINS) | {SOLVER_KEY}
        assert all(out[key] == [] for key in registry.DOMAINS)
        lint_registry(["image"], ignore=list(PASSES) + ["M"])
        assert built == []


def _family_subsets():
    families = sorted(PASSES)
    return [list(combo) for n in range(len(families) + 1)
            for combo in itertools.combinations(families, n)]


class TestGateDifferential:
    """Gated lint == the rule filter applied to the ungated findings."""

    @pytest.fixture(scope="class")
    def planted(self):
        model = small_trained_model(planted_defects)
        # an empty gradient map leaves "w" without a gradient: A002
        kwargs = dict(loss=model.loss, param_grads={})
        everything = lint_graph(model.graph, **kwargs)
        assert {d.code[0] for d in everything} >= {"S", "G", "C", "A",
                                                    "I"}
        return model.graph, kwargs, everything

    @pytest.mark.parametrize("ignore, suppress", [
        ((), ()), (("G002", "I"), ()), ((), ("S", "C003")),
        (("A",), ("G001",)),
    ], ids=["plain", "ignore", "suppress", "both"])
    def test_every_selection_matches_the_filtered_full_lint(
            self, planted, ignore, suppress):
        graph, kwargs, everything = planted
        selections = [None] + _family_subsets() + [
            ["C003"], ["T004"], ["S001"], ["C003", "T004", "S001"],
            ["G001", "A002"], ["I001", "G"]]
        for select in selections:
            gated = lint_graph(graph, select=select, ignore=ignore,
                               suppress=suppress, **kwargs)
            expected = filter_diagnostics(
                everything, select=select, ignore=ignore,
                suppress=suppress)
            assert [d.to_dict() for d in gated] == \
                [d.to_dict() for d in expected], select
