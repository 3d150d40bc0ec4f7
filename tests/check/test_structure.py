"""Fixture tests for the structural pass (S-family rules)."""

from repro.check import structural_diagnostics
from repro.graph import Graph, Op
from repro.ops import matmul, relu
from repro.symbolic import symbols

b, h = symbols("b h")


class PassOp(Op):
    kind = "pass"


def codes(diagnostics):
    return sorted(d.code for d in diagnostics)


def small_clean_graph():
    g = Graph("clean")
    x = g.input("x", (b, h))
    w = g.parameter("w", (h, h))
    relu(g, matmul(g, x, w))
    return g


class TestS001OrphanTensor:
    def test_triggering(self):
        g = Graph("bad")
        g.tensor("orphan", (b,))
        found = structural_diagnostics(g)
        assert codes(found) == ["S001"]
        assert "orphan" in found[0].message

    def test_clean(self):
        assert structural_diagnostics(small_clean_graph()) == []


class TestS002EdgeMismatch:
    def test_rewired_edge_reports_once(self):
        # one rewired edge breaks BOTH directions: t1 still registers
        # the op as consumer, and the op reads t2 unregistered — this
        # used to double-report, and must now be one merged finding
        g = Graph("bad")
        t1 = g.input("t1", (b,))
        t2 = g.input("t2", (b,))
        out = g.tensor("out", (b,))
        op = PassOp("op", [t1], [out])
        g.add_op(op)
        op.inputs = (t2,)  # rewire without fixing consumer lists
        found = structural_diagnostics(g)
        assert codes(found) == ["S002"]
        assert "does not read" in found[0].message
        assert "not registered as its consumer" in found[0].message

    def test_ghost_consumer_only(self):
        g = Graph("bad")
        x = g.input("x", (b,))
        g.add_op(PassOp("op", [x], [g.tensor("out", (b,))]))
        x.consumers.append(PassOp("ghost", [], []))
        found = structural_diagnostics(g)
        assert codes(found) == ["S002"]
        assert "does not read" in found[0].message

    def test_clean(self):
        assert structural_diagnostics(small_clean_graph()) == []


class TestS003OpInvariant:
    def test_triggering(self):
        from repro.ops import MatMulOp

        g = Graph("bad")
        x = g.input("x", (b, h))
        w = g.parameter("w", (h, h))
        out = g.tensor("out", (b, h, h))  # wrong rank
        g.add_op(MatMulOp("mm", x, w, out))
        found = structural_diagnostics(g)
        assert "S003" in codes(found)

    def test_clean(self):
        assert structural_diagnostics(small_clean_graph()) == []


class TestS004Cycle:
    def test_triggering(self):
        # add_op refuses a cycle, so close one behind its back: op1 is
        # rewired to read op2's output, consumer lists kept consistent
        g = Graph("bad")
        x = g.input("x", (b,))
        t1 = g.tensor("t1", (b,))
        t2 = g.tensor("t2", (b,))
        op1 = g.add_op(PassOp("op1", [x], [t1]))
        g.add_op(PassOp("op2", [t1], [t2]))
        op1.inputs = (t2,)
        x.consumers.remove(op1)
        t2.consumers.append(op1)
        found = structural_diagnostics(g)
        assert codes(found) == ["S004"]
        assert found[0].obj == "op1"
        assert "reads t2 before its producer op2 runs" in found[0].message

    def test_clean(self):
        assert structural_diagnostics(small_clean_graph()) == []


class TestS005UnconsumedTensor:
    def test_triggering_in_strict_mode(self):
        g = Graph("bad")
        x = g.input("x", (b,))
        g.add_op(PassOp("op1", [x], [g.tensor("dead", (b,))]))
        found = structural_diagnostics(g, allow_unconsumed=False)
        assert codes(found) == ["S005"]

    def test_terminal_outputs_allowed_by_default(self):
        g = Graph("ok")
        x = g.input("x", (b,))
        g.add_op(PassOp("op1", [x], [g.tensor("out", (b,))]))
        assert structural_diagnostics(g) == []
