"""Tests for the repro-lint console entry point."""

import json

import pytest

from repro.check.cli import main


class TestListRules:
    def test_prints_registry_and_exits_zero(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("S002", "G001", "C003", "A002", "T001",
                     "I001", "M001", "X001"):
            assert code in out

    def test_groups_by_family_with_headers(self, capsys):
        assert main(["--list-rules"]) == 0
        lines = capsys.readouterr().out.splitlines()
        headers = [l for l in lines if not l.startswith("  ")]
        # one header per family, in display order
        assert [h[0] for h in headers] == \
            ["S", "G", "C", "A", "T", "I", "M", "X"]
        # rule rows are indented under their family and carry severity
        i001 = next(l for l in lines if l.startswith("  I001"))
        assert "interval-nonneg-refuted" in i001
        assert "error" in i001


class TestRegistryGate:
    def test_image_domain_is_clean(self, capsys):
        # the acceptance gate in miniature: a registry model must lint
        # with zero error-severity findings (CI runs all domains)
        assert main(["--domain", "image"]) == 0
        out = capsys.readouterr().out
        assert "image" in out
        assert "0 error(s)" in out

    def test_json_report_shape(self, capsys):
        assert main(["--domain", "image", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert payload["schema_version"] == 2
        assert "image" in payload["graphs"]
        assert payload["summary"]["error"] == 0

    def test_select_filters_rules(self, capsys):
        # selecting a family that never fires on a clean model still
        # exits zero and reports a clean run
        assert main(["--domain", "image", "--select", "T"]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, hint", [
        (["--select", "Q9"], "--list-rules"),
        (["--select", "T005"], "T004"),
        (["--select", "C,T0010"], "T001"),
        (["--ignore", "g002"], "G002"),
    ], ids=["unknown-family", "retired-rule", "overlong-code",
            "lowercase"])
    def test_unknown_rule_code_is_usage_error(self, capsys, argv, hint):
        # a code no registered rule starts with would silently match
        # nothing and report a clean run; reject it before linting
        with pytest.raises(SystemExit) as exit_info:
            main(["--domain", "image", *argv])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "E-BIND" in err
        assert "unknown rule code" in err
        assert hint in err

    def test_proof_families_clean_on_registry_model(self, capsys):
        # the I-family interval proofs must hold over the image model's
        # declared sweep domain — even at warning severity
        assert main(["--domain", "image", "--select", "I,M,X",
                     "--fail-on", "warning", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"] == {"error": 0, "warning": 0,
                                      "info": 0}

    @pytest.mark.parametrize("argv, reason", [
        (["--domain", "image", "--select", "X"], "X runs only in the "
                                                 "exec engine"),
        (["--domain", "image", "--select", "M"], "M runs only on a "
                                                 "full-registry lint"),
        (["--select", "S", "--ignore", "S"], "ignore drops every "
                                             "selected rule"),
        (["--domain", "image", "--ignore", "S,G,C,A,T,I"],
         "M runs only on a full-registry lint"),
    ], ids=["exec-family", "solver-family-on-a-domain", "self-cancel",
            "every-graph-family-ignored"])
    def test_filter_that_runs_nothing_is_usage_error(self, capsys, argv,
                                                     reason):
        # no pass would run, so a clean report would check nothing
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "E-BIND" in err
        assert "leaves nothing to check" in err
        assert reason in err
