"""Fixture tests for the I-family whole-domain interval proofs."""

from repro.check import BindingDomain, interval_diagnostics
from repro.check.intervals import (
    model_binding_domain,
    registry_binding_domain,
)
from repro.graph import Graph, Op
from repro.models.registry import build_symbolic, get_domain
from repro.symbolic import Const, Log, Mul, symbols

b, h = symbols("b h")

DOMAIN = BindingDomain({"b": (1.0, 64.0), "h": (2.0, 1024.0)})


def codes(diagnostics):
    return sorted(d.code for d in diagnostics)


class NegativeFlopsOp(Op):
    kind = "negflops"

    def flops(self):
        # b*h - 100000: negative at small sizes in the domain
        return self.inputs[0].num_elements() + Const(-100000)


def one_op_graph(op_cls):
    g = Graph("fixture")
    x = g.input("x", (b, h))
    out = g.tensor("out", (b, h))
    g.add_op(op_cls("op", [x], [out]))
    return g


class TestI001NonnegativityRefuted:
    def test_triggering_with_witness(self):
        found = interval_diagnostics(one_op_graph(NegativeFlopsOp),
                                     DOMAIN)
        assert "I001" in codes(found)
        d = next(d for d in found if d.code == "I001")
        # proof-backed: method, a concrete witness binding, and the
        # computed interval all ride along
        proof = d.data["proof"]
        assert proof["method"] == "interval"
        assert DOMAIN.contains(proof["witness"])
        assert proof["interval"][0] < 0.0

    def test_each_member_of_a_faulty_class_reported(self):
        # three identical faulty ops form one op class, interleaved
        # with clean ones: one finding per faulty op, by its own name,
        # in op order
        g = Graph("fixture")
        x = g.input("x", (b, h))
        for i in range(3):
            g.add_op(NegativeFlopsOp(f"neg{i}", [x],
                                     [g.tensor(f"neg{i}:out", (b, h))]))
            g.add_op(Op(f"plain{i}", [x],
                        [g.tensor(f"plain{i}:out", (b, h))]))
        assert [len(members) for _, members in g.op_classes()] == [3, 3]
        found = [d for d in interval_diagnostics(g, DOMAIN)
                 if d.code == "I001"]
        assert [d.obj for d in found] == ["neg0", "neg1", "neg2"]
        for d in found:
            assert f"op {d.obj} (negflops)" in d.message

    def test_clean_posynomial(self):
        class LinearOp(Op):
            kind = "linear"

            def flops(self):
                return self.inputs[0].num_elements()

        assert interval_diagnostics(one_op_graph(LinearOp),
                                    DOMAIN) == []


class TestI002OverflowReachable:
    def test_triggering_on_domain_error(self):
        class LogUnderflowOp(Op):
            kind = "logflop"

            def flops(self):
                # log(b - 32) hits log(<=0) for b in [1, 64]
                return Log.of(self.inputs[0].shape[0] + Const(-32))

        found = interval_diagnostics(one_op_graph(LogUnderflowOp),
                                     DOMAIN)
        assert "I002" in codes(found)
        d = next(d for d in found if d.code == "I002")
        assert d.data["proof"]["maybe_nan"]

    def test_triggering_on_overflow(self):
        class BlowupOp(Op):
            kind = "blowup"

            def flops(self):
                h_dim = self.inputs[0].shape[1]
                return h_dim ** Const(200)  # 1024**200 >> 1e308

        found = interval_diagnostics(one_op_graph(BlowupOp), DOMAIN)
        assert "I002" in codes(found)


class TestI003IntensityRefutedEverywhere:
    def test_triggering(self):
        class GhostOp(Op):
            kind = "ghost"
            cost_writes_outputs = False

            def flops(self):
                return Mul.of(Const(1e12),
                              self.inputs[0].num_elements())

            def bytes_accessed(self):
                return Const(1)

        found = interval_diagnostics(one_op_graph(GhostOp), DOMAIN)
        assert "I003" in codes(found)
        d = next(d for d in found if d.code == "I003")
        assert d.data["proof"]["flops_lo"] > \
            d.data["proof"]["bytes_cap_hi"]

    def test_real_op_clean(self):
        class PlainOp(Op):
            kind = "plain"

            def flops(self):
                return self.inputs[0].num_elements()

        assert interval_diagnostics(one_op_graph(PlainOp),
                                    DOMAIN) == []


class TestBindingDomains:
    def test_model_domain_covers_sweep_and_batch(self):
        key = "image"
        entry = get_domain(key)
        model = build_symbolic(key)
        domain = model_binding_domain(model)
        size_iv = domain.get(model.size_symbol.name)
        assert size_iv.lo == float(min(entry.sweep_sizes))
        assert size_iv.hi == float(max(entry.sweep_sizes))
        batch_iv = domain.get(model.batch.name)
        assert (batch_iv.lo, batch_iv.hi) == (1.0, float(entry.subbatch))

    def test_registry_domain_matches_model_domain(self):
        assert registry_binding_domain("image").to_dict() == \
            model_binding_domain(build_symbolic("image")).to_dict()

    def test_registry_model_proves_clean(self):
        # the acceptance property in miniature: a registry model's
        # graph carries zero I-family findings over its declared domain
        model = build_symbolic("image")
        found = interval_diagnostics(model.graph,
                                     model_binding_domain(model))
        assert found == []
