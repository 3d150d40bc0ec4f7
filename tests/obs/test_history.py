"""Run-history store: atomic appends, ids, and rollups."""

import json
import os

import pytest

from repro import obs
from repro.obs.history import (
    RunHistory,
    RunRecorder,
    history_path,
    span_rollup,
)
from repro.obs.tracer import Tracer


@pytest.fixture
def history(tmp_path, monkeypatch):
    path = str(tmp_path / "history.jsonl")
    monkeypatch.setenv("REPRO_HISTORY", path)
    return RunHistory(path)


class TestHistoryPath:
    def test_env_override_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_HISTORY", "/somewhere/h.jsonl")
        assert history_path() == "/somewhere/h.jsonl"

    def test_defaults_under_cache_dir(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_HISTORY", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert history_path() == str(tmp_path / "history.jsonl")


class TestAppendLoad:
    def test_content_addressed_ids(self, history):
        rid_a = history.append({"command": "x", "exit_code": 0})
        rid_b = history.append({"command": "x", "exit_code": 0})
        rid_c = history.append({"command": "y", "exit_code": 0})
        # identical records hash identically; different ones don't
        assert rid_a == rid_b != rid_c
        assert len(rid_a) == 64
        records = history.load()
        assert [r["run_id"] for r in records] == [rid_a, rid_b, rid_c]

    def test_id_verifiable_against_content(self, history):
        import hashlib

        history.append({"command": "x"})
        record = history.load()[0]
        rid = record.pop("run_id")
        canonical = json.dumps(record, sort_keys=True,
                               separators=(",", ":"))
        assert hashlib.sha256(
            canonical.encode()).hexdigest() == rid

    def test_truncated_trailing_line_is_dropped(self, history):
        rid = history.append({"command": "x"})
        with open(history.path, "a", encoding="utf-8") as handle:
            handle.write('{"run_id": "abc", "trunc')  # crash mid-write
        records = history.load()
        assert [r["run_id"] for r in records] == [rid]

    def test_missing_file_loads_empty(self, tmp_path):
        assert RunHistory(str(tmp_path / "nope.jsonl")).load() == []

    def test_get_by_prefix_and_aliases(self, history):
        rid_a = history.append({"command": "a"})
        rid_b = history.append({"command": "b"})
        assert history.get(rid_a[:10])["run_id"] == rid_a
        assert history.get("latest")["run_id"] == rid_b
        assert history.get("last")["run_id"] == rid_b
        assert history.get("prev")["run_id"] == rid_a
        assert history.get("ffffffffffff") is None
        assert history.latest()["run_id"] == rid_b


class TestSpanRollup:
    def test_exact_and_prefix_keys(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("exec.task", "exec"):
            pass
        with tracer.span("exec.task", "exec"):
            pass
        try:
            with tracer.span("exec.worker_task", "exec"):
                raise ValueError("x")
        except ValueError:
            pass
        rollup = span_rollup(tracer.spans())
        assert rollup["exec.task"]["count"] == 2
        assert rollup["exec.worker_task"]["count"] == 1
        assert rollup["exec.worker_task"]["errors"] == 1
        assert rollup["exec.*"]["count"] == 3
        assert rollup["exec.*"]["errors"] == 1
        assert (rollup["exec.*"]["total_ns"]
                == rollup["exec.task"]["total_ns"]
                + rollup["exec.worker_task"]["total_ns"])
        assert rollup["exec.*"]["max_ns"] >= rollup["exec.task"]["max_ns"]


class TestRunRecorder:
    def test_finish_records_snapshot_and_status(self, history):
        obs.counter("test.history.hits").inc(7)
        recorder = RunRecorder("test-cmd", config={"k": "v"})
        rid = recorder.finish(0)
        record = history.get(rid)
        assert record["status"] == "ok" and record["exit_code"] == 0
        assert record["command"] == "test-cmd"
        assert record["config"] == {"k": "v"}
        assert record["metrics"]["test.history.hits"]["value"] == 7
        assert record["engine"]["python"].count(".") == 2

    def test_exit_code_maps_to_status(self, history):
        from repro.errors import EXIT_RESUMABLE

        assert history.get(RunRecorder("c").finish(1))["status"] == "error"
        assert (history.get(RunRecorder("c").finish(EXIT_RESUMABLE))
                ["status"] == "interrupted")

    def test_finish_never_raises(self, tmp_path):
        # unwritable history path: finish() swallows and counts
        recorder = RunRecorder("c", path=os.path.join(
            str(tmp_path / "file-not-dir"), "sub", "h.jsonl"))
        (tmp_path / "file-not-dir").write_text("occupied")
        before = obs.counter("obs.history.append_failed").value
        assert recorder.finish(0) is None
        assert (obs.counter("obs.history.append_failed").value
                == before + 1)
