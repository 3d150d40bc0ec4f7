"""Smoke tests: runnable examples and the artifact results generator."""

import os
import runpy
import sys

import pytest

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "examples")


def run_example(name):
    path = os.path.join(EXAMPLES, name)
    return runpy.run_path(path, run_name="not_main")


class TestExamples:
    def test_quickstart_main(self, capsys):
        module = run_example("quickstart.py")
        module["main"]()
        out = capsys.readouterr().out
        assert "gamma" in out and "utilization" in out

    def test_custom_model_main(self, capsys):
        module = run_example("custom_model.py")
        module["main"]()
        out = capsys.readouterr().out
        assert "loss on random data" in out
        assert "matmul" in out

    def test_learning_curve_fitting_main(self, capsys):
        module = run_example("learning_curve_fitting.py")
        module["main"]()
        out = capsys.readouterr().out
        assert "power-law fit" in out
        assert "R^2" in out

    def test_frontier_projection_functions(self, capsys):
        module = run_example("frontier_projection.py")
        module["custom_domain"]()
        out = capsys.readouterr().out
        assert "data scale needed" in out

    def test_checkpoint_workflow_main(self, capsys):
        module = run_example("checkpoint_workflow.py")
        module["main"]()
        out = capsys.readouterr().out
        assert "execution identical" in out
        assert "Analysis of word_lm" in out

    def test_parallelism_planning_importable(self):
        # the full main() runs the frontier case study (slow); just
        # check the script parses and exposes main
        module = run_example("parallelism_planning.py")
        assert callable(module["main"])

    def test_parallelism_planning_main(self, capsys):
        # the case study is memoized and about 0.5 s cold, so main()
        # runs in full; it reads the case-study result's fields
        module = run_example("parallelism_planning.py")
        module["main"]()
        out = capsys.readouterr().out
        assert "algorithmic optimization speedup" in out
        assert "communication overhead saturates" in out


class TestArtifactGenerator:
    def test_generates_files_and_summary(self, tmp_path):
        from repro.artifact import generate_results

        files = generate_results(
            str(tmp_path), configs=(("image", 1), ("word_lm", 512))
        )
        assert len(files) == 3
        summary = (tmp_path / "summary.txt").read_text()
        assert "Gathered results" in summary
        word = (tmp_path / "output_word_lm_512.txt").read_text()
        assert "Analysis of word_lm" in word
        assert "FLOPs by op kind" in word

    def test_cli_entry(self, tmp_path, capsys):
        from repro.artifact import main

        assert main(["--out", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out
        assert (tmp_path / "out" / "summary.txt").exists()
