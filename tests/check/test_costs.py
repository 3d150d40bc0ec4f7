"""Fixture tests for cost-formula dimensional analysis (C-family)."""

from repro.check import cost_diagnostics
from repro.graph import Graph, Op
from repro.ops import matmul, relu
from repro.symbolic import Const, Mul, symbols

b, h, m, k, n = symbols("b h m k n")


def codes(diagnostics):
    return sorted(d.code for d in diagnostics)


class HalfMatMulOp(Op):
    kind = "matmul"  # claims matmul but drops the factor 2

    def flops(self):
        a, bb = self.inputs
        return Mul.of(a.shape[0], a.shape[1], bb.shape[1])


def one_op_graph(op_cls, in_shape=(b, h), out_shape=(b, h)):
    g = Graph("fixture")
    x = g.input("x", in_shape)
    out = g.tensor("out", out_shape)
    g.add_op(op_cls("op", [x], [out]))
    return g


class TestC001WriteLowerBound:
    def test_triggering(self):
        class NoTrafficOp(Op):
            kind = "bad_bytes"

            def bytes_accessed(self):
                return Const(0)  # claims zero traffic yet writes `out`

        found = cost_diagnostics(one_op_graph(NoTrafficOp))
        assert codes(found) == ["C001"]
        assert "must write" in found[0].message

    def test_view_ops_exempt_via_metadata(self):
        class ViewOp(Op):
            kind = "view"
            cost_writes_outputs = False

            def bytes_accessed(self):
                return Const(0)

        assert cost_diagnostics(one_op_graph(ViewOp)) == []


class TestC002OperandUpperBound:
    def test_triggering(self):
        class ChattyOp(Op):
            kind = "chatty"

            def bytes_accessed(self):
                # 10 passes over the input alone: way past 1 pass
                # over inputs+outputs
                return Mul.of(Const(10), self.inputs[0].size_bytes())

        found = cost_diagnostics(one_op_graph(ChattyOp))
        assert "C002" in codes(found)

    def test_declared_passes_raise_the_bound(self):
        class TwoPassOp(Op):
            kind = "two_pass"
            cost_bytes_passes = 2

            def bytes_accessed(self):
                return Mul.of(Const(2), self.inputs[0].size_bytes()) \
                    + self.outputs[0].size_bytes()

        assert cost_diagnostics(one_op_graph(TwoPassOp)) == []


class TestC003FlopsDegreeAnomaly:
    def test_triggering(self):
        class SuperlinearOp(Op):
            kind = "superlinear"

            def flops(self):
                # h² while every tensor is only degree 1 in h
                x = self.inputs[0]
                return Mul.of(x.num_elements(), x.shape[1])

        found = cost_diagnostics(one_op_graph(SuperlinearOp))
        assert "C003" in codes(found)
        d = next(d for d in found if d.code == "C003")
        assert "h^2" in d.message
        # the finding is proof-backed (symbolic degree analysis), not
        # a sampled probe: the witness names the method and the degrees
        proof = d.data["proof"]
        assert proof["method"] == "poly-degree"
        assert proof["symbol"] == "h"
        assert proof["degree"] == 2.0
        assert proof["cap"] == 1.0

    def test_declared_degree_overrides_tensor_cap(self):
        class DeclaredOp(Op):
            kind = "declared"
            cost_degree = 2

            def flops(self):
                x = self.inputs[0]
                return Mul.of(x.num_elements(), x.shape[1])

        assert cost_diagnostics(one_op_graph(DeclaredOp)) == []

    def test_clean_linear_op(self):
        class LinearOp(Op):
            kind = "linear"

            def flops(self):
                return self.inputs[0].num_elements()

        assert cost_diagnostics(one_op_graph(LinearOp)) == []


class TestC004MatmulForm:
    def test_triggering(self):
        g = Graph("fixture")
        a = g.input("a", (m, k))
        bb = g.input("b", (k, n))
        out = g.tensor("out", (m, n))
        g.add_op(HalfMatMulOp("mm", [a, bb], [out]))
        found = cost_diagnostics(g)
        assert "C004" in codes(found)

    def test_each_member_of_a_faulty_class_reported(self):
        # three identical faulty ops form one op class, interleaved
        # with clean matmuls: one finding per faulty op, by its own
        # name, in op order
        g = Graph("fixture")
        a = g.input("a", (m, k))
        bb = g.input("b", (k, n))
        for i in range(3):
            out = g.tensor(f"out{i}", (m, n))
            g.add_op(HalfMatMulOp(f"half{i}", [a, bb], [out]))
            matmul(g, a, bb, name=f"real{i}")
        assert [len(members) for _, members in g.op_classes()] == [3, 3]
        found = [d for d in cost_diagnostics(g) if d.code == "C004"]
        assert [d.obj for d in found] == ["half0", "half1", "half2"]
        for d in found:
            assert f"op {d.obj} (matmul)" in d.message

    def test_real_matmul_clean(self):
        g = Graph("fixture")
        x = g.input("x", (b, h))
        w = g.parameter("w", (h, h))
        matmul(g, x, w, name="mm")
        assert "C004" not in codes(cost_diagnostics(g))

    def test_transposed_matmul_clean(self):
        g = Graph("fixture")
        x = g.input("x", (h, b))
        w = g.parameter("w", (h, h))
        matmul(g, x, w, transpose_a=True, name="mm")
        assert "C004" not in codes(cost_diagnostics(g))


class TestC005IntensityBounds:
    def test_flops_without_memory(self):
        class GhostComputeOp(Op):
            kind = "ghost"
            cost_writes_outputs = False

            def flops(self):
                return self.inputs[0].num_elements()

            def bytes_accessed(self):
                return Const(0)

        found = cost_diagnostics(one_op_graph(GhostComputeOp))
        assert "C005" in codes(found)
        d = next(d for d in found if d.code == "C005")
        assert "touching no memory" in d.message
        # proven over the whole positive domain by the posynomial
        # comparison, with one concrete witness binding attached
        proof = d.data["proof"]
        assert proof["method"] == "posynomial-bound"
        assert proof["witness"]

    def test_intensity_above_reuse_cap(self):
        class HotOp(Op):
            kind = "hot"
            cost_degree = 1  # keep C003 quiet; intensity is the bug

            def flops(self):
                # 10⁶ FLOPs per element exceeds any possible reuse of
                # an operand this small
                return Mul.of(Const(1_000_000),
                              self.inputs[0].num_elements())

        found = cost_diagnostics(one_op_graph(HotOp))
        assert "C005" in codes(found)

    def test_real_ops_clean(self):
        g = Graph("fixture")
        x = g.input("x", (b, h))
        w = g.parameter("w", (h, h))
        relu(g, matmul(g, x, w, name="mm"), name="act")
        assert cost_diagnostics(g) == []
