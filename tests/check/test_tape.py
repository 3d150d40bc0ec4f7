"""Fixture tests for the compiled-tape verifier (T-family rules)."""

from repro.check import equivalence_diagnostics, verify_tape
from repro.symbolic import Const, symbols
from repro.symbolic.compile import CompiledExpr, compile_batch, compile_expr

x, y = symbols("x y")

# opcodes, as documented by the tape format
_SYM, _ADD, _CEIL = 1, 2, 7


def codes(diagnostics):
    return sorted(d.code for d in diagnostics)


def make_tape(code, n_symbols, out_slots):
    from repro.symbolic import Symbol

    syms = tuple(Symbol(f"s{i}") for i in range(n_symbols))
    return CompiledExpr(code, syms, out_slots, single=len(out_slots) == 1)


class TestT001SlotLifetimes:
    def test_read_before_write(self):
        # instruction 1 reads slot 1 — its own, not yet written
        prog = make_tape([(_SYM, 0), (_CEIL, 1)], 1, (1,))
        found = verify_tape(prog)
        assert "T001" in codes(found)

    def test_read_of_never_written_slot(self):
        prog = make_tape([(_SYM, 0), (_CEIL, 5)], 1, (1,))
        found = verify_tape(prog)
        t001 = [d for d in found if d.code == "T001"]
        assert len(t001) == 1
        assert "never" in t001[0].message

    def test_compiled_tapes_clean(self):
        prog = compile_batch([x * y + Const(3), (x + y) ** 2])
        assert verify_tape(prog) == []


class TestT002MalformedInstruction:
    def test_unknown_opcode(self):
        prog = make_tape([(42, None)], 0, (0,))
        assert "T002" in codes(verify_tape(prog))

    def test_malformed_payload(self):
        prog = make_tape([(_ADD, "not a payload")], 0, (0,))
        assert "T002" in codes(verify_tape(prog))

    def test_symbol_index_out_of_range(self):
        prog = make_tape([(_SYM, 3)], 1, (0,))
        found = verify_tape(prog)
        assert codes(found) == ["T002"]

    def test_output_slot_out_of_range(self):
        prog = make_tape([(_SYM, 0)], 1, (7,))
        found = verify_tape(prog)
        assert "T002" in codes(found)


class TestT003DeadInstruction:
    def test_triggering(self):
        # instruction 0 is written, never read, and not an output
        prog = make_tape([(_SYM, 0), (_SYM, 0)], 1, (1,))
        found = verify_tape(prog)
        assert codes(found) == ["T003"]

    def test_cse_emits_no_dead_code(self):
        prog = compile_expr((x + y) * (x + y) + x)
        assert verify_tape(prog) == []


class TestT004TapeTreeEquivalence:
    def test_divergence_detected(self):
        # tape computes x+1 while the tree claims x+2
        prog = compile_expr(x + Const(1))
        found = equivalence_diagnostics([x + Const(2)], prog=prog)
        assert codes(found) == ["T004"]
        assert "tape" in found[0].message

    def test_faithful_tape_clean(self):
        exprs = [x * y + Const(3), (x + y) ** 2, x ** x]
        assert equivalence_diagnostics(exprs) == []

    def test_deterministic_given_seed(self):
        prog = compile_expr(x + Const(1))
        a = equivalence_diagnostics([x + Const(2)], prog=prog, seed=7)
        bb = equivalence_diagnostics([x + Const(2)], prog=prog, seed=7)
        assert [d.message for d in a] == [d.message for d in bb]

