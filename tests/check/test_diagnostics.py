"""Tests for the rule registry, Diagnostic records, and filtering."""

import pytest

from repro.check import (
    ERROR,
    INFO,
    RULES,
    WARNING,
    Diagnostic,
    filter_diagnostics,
)
from repro.check.diagnostics import max_severity


#: the full rule inventory, locked code-by-code: adding a rule means
#: extending this table in the same change; renumbering or silently
#: dropping a code (which downstream --select/--ignore configs and
#: recorded lint reports reference) fails here
EXPECTED_RULES = {
    "S001": ("orphan-tensor", ERROR),
    "S002": ("edge-mismatch", ERROR),
    "S003": ("op-invariant", ERROR),
    "S004": ("cycle", ERROR),
    "S005": ("unconsumed-tensor", WARNING),
    "G001": ("dead-op", WARNING),
    "G002": ("dead-tensor", WARNING),
    "G003": ("param-never-updated", ERROR),
    "C001": ("bytes-write-lower-bound", ERROR),
    "C002": ("bytes-operand-upper-bound", WARNING),
    "C003": ("flops-degree-anomaly", ERROR),
    "C004": ("matmul-flops-form", ERROR),
    "C005": ("intensity-bounds", WARNING),
    "A001": ("grad-shape-mismatch", ERROR),
    "A002": ("missing-gradient", ERROR),
    "A003": ("grad-dtype-mismatch", WARNING),
    "T001": ("slot-read-after-free", ERROR),
    "T002": ("malformed-instruction", ERROR),
    "T003": ("dead-instruction", WARNING),
    "T004": ("tape-tree-divergence", ERROR),
    "I001": ("interval-nonneg-refuted", ERROR),
    "I002": ("interval-overflow", WARNING),
    "I003": ("intensity-interval-refuted", WARNING),
    "M001": ("bisection-precondition-unproved", ERROR),
    "M002": ("bisection-precondition-refuted", ERROR),
    "M003": ("bracket-domain-mismatch", WARNING),
    "X001": ("store-key-collision", ERROR),
    "X002": ("output-path-race", ERROR),
}


class TestRuleRegistry:
    def test_all_families_present(self):
        families = {code[0] for code in RULES}
        assert families == {"S", "G", "C", "A", "T", "I", "M", "X"}

    def test_inventory_locked(self):
        assert {c: (r.name, r.severity) for c, r in RULES.items()} \
            == EXPECTED_RULES

    def test_codes_are_stable_format(self):
        for code, rule in RULES.items():
            assert len(code) == 4 and code[1:].isdigit()
            assert rule.code == code
            assert rule.severity in (ERROR, WARNING, INFO)
            assert rule.description

    def test_known_rules_exist(self):
        assert RULES["G001"].name == "dead-op"
        assert RULES["C003"].name == "flops-degree-anomaly"
        assert RULES["A002"].name == "missing-gradient"
        assert RULES["T001"].name == "slot-read-after-free"


class TestDiagnostic:
    def test_severity_defaults_from_rule(self):
        assert Diagnostic("G001", "x").severity == WARNING
        assert Diagnostic("A002", "x").severity == ERROR

    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError, match="unknown lint rule"):
            Diagnostic("Z999", "nope")

    def test_format_mentions_code_rule_and_anchor(self):
        d = Diagnostic("C004", "flops wrong", graph="g", obj="mm")
        text = d.format()
        assert "C004" in text
        assert "matmul-flops-form" in text
        assert "[mm]" in text
        assert text.startswith("g: ")

    def test_to_dict_round_trips_fields(self):
        d = Diagnostic("T004", "diverged", graph="g", obj="out 3",
                       data={"trial": 1})
        payload = d.to_dict()
        assert payload["code"] == "T004"
        assert payload["severity"] == ERROR
        assert payload["data"] == {"trial": 1}


class TestFiltering:
    def _sample(self):
        return [
            Diagnostic("G002", "w1", graph="g"),
            Diagnostic("A002", "e1", graph="g"),
            Diagnostic("C002", "w2", graph="g"),
            Diagnostic("T004", "e2", graph="g"),
        ]

    def test_sorted_most_severe_first(self):
        out = filter_diagnostics(self._sample())
        assert [d.severity for d in out] == [ERROR, ERROR,
                                             WARNING, WARNING]

    def test_select_by_family_prefix(self):
        out = filter_diagnostics(self._sample(), select=["C", "T004"])
        assert sorted(d.code for d in out) == ["C002", "T004"]

    def test_ignore_drops_codes(self):
        out = filter_diagnostics(self._sample(), ignore=["A", "G002"])
        assert sorted(d.code for d in out) == ["C002", "T004"]

    def test_suppress_composes_with_select(self):
        out = filter_diagnostics(
            self._sample(), select=["A", "T"], suppress=["T"])
        assert [d.code for d in out] == ["A002"]

    def test_select_and_ignore_cover_proof_families(self):
        diags = [
            Diagnostic("I001", "i", graph="g"),
            Diagnostic("M002", "m", graph="g"),
            Diagnostic("X002", "x", graph="g"),
            Diagnostic("G001", "w", graph="g"),
        ]
        out = filter_diagnostics(diags, select=["I", "M", "X"])
        assert sorted(d.code for d in out) == ["I001", "M002", "X002"]
        out = filter_diagnostics(diags, ignore=["I", "X002"])
        assert sorted(d.code for d in out) == ["G001", "M002"]

    def test_max_severity(self):
        assert max_severity([]) is None
        assert max_severity(self._sample()) == ERROR
        assert max_severity([Diagnostic("G002", "w")]) == WARNING
