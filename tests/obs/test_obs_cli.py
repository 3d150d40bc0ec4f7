"""repro-obs CLI: list/show/diff/check/export against a real history."""

import json

import pytest

from repro.obs.cli import EXIT_VIOLATION, main
from repro.obs.history import RunHistory


def _record(command="repro.artifact", *, completed, failed=0,
            run_ms=100.0, extra_metrics=None, status="ok"):
    metrics = {
        "exec.tasks.completed": {"type": "counter", "value": completed},
        "exec.tasks.failed": {"type": "counter", "value": failed},
        "exec.worker.ms": {
            "type": "histogram", "count": completed,
            "sum": 30.0 * completed, "min": 10.0, "max": 50.0,
            # observations in (16, 32] and (32, 64]
            "buckets": {"5": max(completed - 1, 0),
                        "6": 1 if completed else 0},
        },
    }
    metrics.update(extra_metrics or {})
    return {
        "command": command,
        "started": 1700000000.0,
        "duration_s": run_ms / 1000.0,
        "exit_code": 0 if status == "ok" else 1,
        "status": status,
        "metrics": metrics,
        "spans": {
            "exec.run": {"count": 1, "total_ns": int(run_ms * 1e6),
                         "max_ns": int(run_ms * 1e6), "errors": 0},
            "exec.task": {"count": completed,
                          "total_ns": int(run_ms * 0.8e6),
                          "max_ns": int(run_ms * 0.5e6), "errors": 0},
        },
        "n_spans": 1 + completed,
    }


@pytest.fixture
def history(tmp_path):
    h = RunHistory(str(tmp_path / "history.jsonl"))
    return h


def _main(history, *argv):
    return main(["--history", history.path, *argv])


class TestList:
    def test_lists_runs_newest_last(self, history, capsys):
        rid_a = history.append(_record(completed=2))
        rid_b = history.append(_record(completed=3, run_ms=120))
        assert _main(history, "list") == 0
        out = capsys.readouterr().out
        assert rid_a[:12] in out and rid_b[:12] in out
        assert out.index(rid_a[:12]) < out.index(rid_b[:12])

    def test_empty_history(self, history, capsys):
        assert _main(history, "list") == 0
        assert "no runs recorded" in capsys.readouterr().out


class TestShow:
    def test_show_renders_percentiles(self, history, capsys):
        history.append(_record(completed=4))
        assert _main(history, "show", "latest") == 0
        out = capsys.readouterr().out
        assert "exec.tasks.completed" in out
        assert "exec.run" in out            # span rollup table
        row = [line for line in out.splitlines()
               if line.startswith("exec.worker.ms")][0]
        # p50 of {3 obs in (16,32], 1 in (32,64]} sits in (16,32];
        # p99 approaches the recorded max (50)
        cells = row.split()
        p50, p99 = float(cells[-3]), float(cells[-1])
        assert 16 <= p50 <= 32
        assert 32 < p99 <= 50

    def test_unknown_run_exits_nonzero(self, history):
        history.append(_record(completed=1))
        with pytest.raises(SystemExit):
            _main(history, "show", "ffffffff")


class TestDiff:
    def test_deltas_have_correct_signs(self, history, capsys):
        history.append(_record(completed=2, failed=3, run_ms=100))
        history.append(_record(completed=5, failed=1, run_ms=80))
        assert _main(history, "diff", "prev", "latest") == 0
        out = capsys.readouterr().out
        completed = [l for l in out.splitlines()
                     if l.startswith("exec.tasks.completed")][0]
        failed = [l for l in out.splitlines()
                  if l.startswith("exec.tasks.failed")][0]
        assert "+3" in completed       # 2 -> 5 grows
        assert "-2" in failed          # 3 -> 1 shrinks
        run_row = [l for l in out.splitlines()
                   if l.startswith("exec.run")][0]
        assert "-20.0" in run_row      # 100 ms -> 80 ms

    def test_threshold_hides_small_changes(self, history, capsys):
        history.append(_record(completed=100))
        history.append(_record(completed=101))  # +1%
        assert _main(history, "diff", "prev", "latest",
                     "--threshold", "50") == 0
        out = capsys.readouterr().out
        assert "exec.tasks.completed" not in out


class TestCheck:
    def _floors(self, tmp_path, payload):
        path = tmp_path / "floors.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_passing_gate(self, history, tmp_path, capsys):
        history.append(_record(completed=4))
        floors = self._floors(tmp_path, {
            "metrics_min": {"exec.tasks.completed": 2},
            "metrics_max": {"exec.tasks.failed": 0},
            "require_spans": ["exec.run", "exec.task"],
            "span_total_ms_max": {"exec.run": 10000},
        })
        assert _main(history, "check", "--floors", floors) == 0
        assert "passed 5 check(s)" in capsys.readouterr().out

    def test_violations_exit_nonzero(self, history, tmp_path, capsys):
        history.append(_record(completed=1, failed=2, run_ms=500))
        floors = self._floors(tmp_path, {
            "metrics_min": {"exec.tasks.completed": 10,
                            "absent.metric": 1},
            "metrics_max": {"exec.tasks.failed": 0},
            "require_spans": ["exec.worker_task"],
            "span_total_ms_max": {"exec.run": 100},
        })
        assert (_main(history, "check", "--floors", floors)
                == EXIT_VIOLATION)
        out = capsys.readouterr().out
        assert "FAILED (5/5 checks)" in out
        assert "below floor" in out and "above ceiling" in out
        assert "absent" in out and "exceeds budget" in out

    def test_ceiling_on_a_missing_metric_is_a_violation(
            self, history, tmp_path, capsys):
        # a ceiling binds nothing on a metric the run never recorded
        # (a misspelt or deleted name), so it must not pass silently
        history.append(_record(completed=2))
        floors = self._floors(tmp_path, {
            "metrics_max": {"exec.tasks.failed": 0,
                            "no.such.metric": 0},
        })
        assert (_main(history, "check", "--floors", floors)
                == EXIT_VIOLATION)
        out = capsys.readouterr().out
        assert "FAILED (1/2 checks)" in out
        assert "metric 'no.such.metric' missing (needs <= 0)" in out

    def test_unreadable_floors(self, history, tmp_path):
        history.append(_record(completed=1))
        assert (_main(history, "check", "--floors",
                      str(tmp_path / "nope.json")) == EXIT_VIOLATION)

    def test_section_selects_nested_floors(self, history, tmp_path,
                                           capsys):
        history.append(_record(
            command="repro.serve",
            completed=1,
            extra_metrics={"serve.admission.shed":
                           {"type": "counter", "value": 3}}))
        floors = self._floors(tmp_path, {
            "metrics_min": {"absent.would.fail": 99},
            "sections": {
                "serve": {"metrics_min": {"serve.admission.shed": 1}},
            },
        })
        # the section replaces the top-level floors entirely
        assert _main(history, "check", "--floors", floors,
                     "--section", "serve") == 0
        assert "passed 1 check(s)" in capsys.readouterr().out
        assert (_main(history, "check", "--floors", floors)
                == EXIT_VIOLATION)

    def test_unknown_section_lists_available(self, history, tmp_path,
                                             capsys):
        history.append(_record(completed=1))
        floors = self._floors(tmp_path, {
            "sections": {"serve": {"metrics_min": {}}},
        })
        assert (_main(history, "check", "--floors", floors,
                      "--section", "nope") == EXIT_VIOLATION)
        err = capsys.readouterr().err
        assert "no section 'nope'" in err and "serve" in err


class TestExport:
    def test_openmetrics_roundtrip(self, history, capsys):
        history.append(_record(completed=4))
        assert _main(history, "export", "latest") == 0
        out = capsys.readouterr().out
        assert "repro_exec_tasks_completed_total 4" in out
        assert 'repro_exec_worker_ms_bucket{le="+Inf"} 4' in out
        assert "repro_exec_worker_ms_sum 120" in out
        assert out.endswith("# EOF\n")

    def test_export_to_file(self, history, tmp_path, capsys):
        history.append(_record(completed=2))
        out_path = str(tmp_path / "metrics.txt")
        assert _main(history, "export", "latest",
                     "--out", out_path) == 0
        with open(out_path) as handle:
            assert handle.read().endswith("# EOF\n")


class TestBoundedHistory:
    def test_appends_past_the_cap_keep_the_newest_runs(
            self, history, tmp_path, capsys):
        from repro.obs.history import MAX_RECORDS

        ids = [history.append(_record(completed=n))
               for n in range(MAX_RECORDS + 5)]
        with open(history.path, "rb") as handle:
            kept = handle.read().count(b"\n")
        # the oldest went first, down to the low-water mark, and a
        # trimmed file stays valid JSONL
        assert MAX_RECORDS - MAX_RECORDS // 8 <= kept <= MAX_RECORDS
        assert [r["run_id"] for r in history.load()] == ids[-kept:]
        assert history.get(ids[0]) is None

        assert _main(history, "list", "--limit", "3") == 0
        out = capsys.readouterr().out
        assert all(rid[:12] in out for rid in ids[-3:])
        floors = tmp_path / "floors.json"
        floors.write_text(json.dumps(
            {"metrics_min": {"exec.tasks.completed": MAX_RECORDS + 4}}))
        assert _main(history, "check", "latest",
                     "--floors", str(floors)) == 0
        assert "passed 1 check(s)" in capsys.readouterr().out

    def test_a_history_that_is_not_a_file_is_never_read_back(self):
        # reading a device or a pipe back could block; only the append
        # happens
        import os

        assert len(RunHistory(os.devnull).append(_record(completed=1))) == 64
