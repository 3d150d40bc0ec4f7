"""Resilience tests: graceful shutdown, engine drain, SIGINT oracle.

The differential oracle at the bottom is the interrupt contract: an
artifact run interrupted by SIGINT mid-flight exits 3, and the same
command rerun with the same result store exits 0, answers at least one
task from the store, and leaves an output tree byte-identical to an
uninterrupted run.
"""

import os
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.errors import EXIT_RESUMABLE, RunInterrupted
from repro.exec.engine import ExecutionEngine, Task
from repro.exec.signals import GracefulShutdown
from repro.exec.store import ResultStore

from ._workers import double


class TestGracefulShutdown:
    def test_first_signal_flips_flag_second_raises(self, tmp_path):
        log = open(os.devnull, "w")
        try:
            with GracefulShutdown(signals=(signal.SIGUSR1,),
                                  stream=log) as shutdown:
                assert not shutdown.stop_requested()
                signal.raise_signal(signal.SIGUSR1)
                assert shutdown.stop_requested()
                with pytest.raises(KeyboardInterrupt):
                    signal.raise_signal(signal.SIGUSR1)
        finally:
            log.close()

    def test_handlers_restored_on_exit(self):
        previous = signal.getsignal(signal.SIGUSR1)
        with GracefulShutdown(signals=(signal.SIGUSR1,)):
            assert signal.getsignal(signal.SIGUSR1) != previous
        assert signal.getsignal(signal.SIGUSR1) == previous


def _keyed_tasks(n):
    return [Task(id=f"t{i}", fn=double, args=(i,), key=f"{i:064x}")
            for i in range(n)]


class TestEngineDrain:
    def test_stop_interrupts_serial_run_resumably(self, tmp_path):
        store = ResultStore(str(tmp_path))
        calls = []

        def stop():
            return len(calls) >= 2

        engine = ExecutionEngine(max_workers=0, store=store, stop=stop)

        def on_result(task, result):
            calls.append(task.id)

        with pytest.raises(RunInterrupted) as info:
            engine.run(_keyed_tasks(4), on_result=on_result)
        err = info.value
        assert sorted(err.results) == ["t0", "t1"]
        assert err.pending == ("t2", "t3")
        assert "rerun the same command" in err.hint
        # completed tasks are in the store, so a rerun answers them
        assert [store.get(task.key) for task in _keyed_tasks(4)] \
            == [0, 2, None, None]

    def test_rerun_engine_answers_finished_tasks_from_the_store(
            self, tmp_path):
        store = ResultStore(str(tmp_path))
        ExecutionEngine(max_workers=0, store=store).run(_keyed_tasks(3))
        seen = []
        results = ExecutionEngine(max_workers=0, store=store).run(
            _keyed_tasks(3),
            on_result=lambda task, result: seen.append(task.id),
        )
        # on_result fires for store hits too: that rewrites outputs
        assert seen == ["t0", "t1", "t2"]
        assert [results[f"t{i}"].value for i in range(3)] == [0, 2, 4]
        assert all(results[t].source == "cache" for t in results)

    def test_pool_rerun_answers_from_the_store(self, tmp_path):
        store = ResultStore(str(tmp_path))
        ExecutionEngine(max_workers=2, store=store).run(_keyed_tasks(4))
        results = ExecutionEngine(max_workers=2, store=store).run(
            _keyed_tasks(4))
        assert [results[f"t{i}"].value for i in range(4)] == [0, 2, 4, 6]
        assert all(results[t].source == "cache" for t in results)


#: the pooled run gets ten configs, so the drain (at most two tasks
#: per worker in flight) cannot finish the whole batch
CONFIGS = {
    "serial": "word_lm:1024,word_lm:2048,image:1,image:2",
    "pooled": "word_lm:1024,word_lm:2048,word_lm:4096,word_lm:8192,"
              "image:1,image:2,image:4,image:8,nmt:1024,nmt:2048",
}
WORKERS = {"serial": "0", "pooled": "2"}


def _cli(mode, out, *extra):
    return [sys.executable, "-m", "repro.artifact", "--out", out,
            "--configs", CONFIGS[mode], "--max-workers", WORKERS[mode],
            *extra]


def _env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    return env


def _read_tree(out_dir):
    tree = {}
    for root, _, files in os.walk(out_dir):
        for name in files:
            path = os.path.join(root, name)
            rel = os.path.relpath(path, out_dir)
            with open(path, "rb") as handle:
                tree[rel] = handle.read()
    return tree


def _interrupt_and_rerun(tmp_path, mode):
    """SIGINT after the first output file, rerun, diff against an
    uninterrupted run (see the module docstring)."""
    interrupted = str(tmp_path / "interrupted")
    oracle = str(tmp_path / "oracle")
    command = _cli(mode, interrupted,
                   "--cache-dir", str(tmp_path / "store"))

    proc = subprocess.Popen(command, env=_env(),
                            stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    # interrupt as soon as the first output file is published
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        if (os.path.isdir(interrupted)
                and any(name.startswith("output_")
                        for name in os.listdir(interrupted))):
            break
        if proc.poll() is not None:
            break
        time.sleep(0.05)
    assert proc.poll() is None, (
        "run finished before it could be interrupted: "
        + proc.stderr.read().decode())
    proc.send_signal(signal.SIGINT)
    _, stderr = proc.communicate(timeout=120)
    assert proc.returncode == EXIT_RESUMABLE, stderr.decode()
    assert "draining" in stderr.decode()
    assert "rerun the same command" in stderr.decode()
    # partial tree: some outputs exist, summary does not
    partial = _read_tree(interrupted)
    assert 0 < len(partial) < len(CONFIGS[mode].split(","))
    assert "summary.txt" not in partial

    rerun = subprocess.run(command + ["--metrics"], env=_env(),
                           capture_output=True, timeout=600)
    assert rerun.returncode == 0, rerun.stderr.decode()
    hits = re.search(rb"^exec\.tasks\.cache_hit\s+counter\s+(\d+)",
                     rerun.stdout, re.MULTILINE)
    assert hits and int(hits.group(1)) >= 1, rerun.stdout.decode()

    clean = subprocess.run(_cli(mode, oracle, "--no-cache"),
                           env=_env(), capture_output=True,
                           timeout=600)
    assert clean.returncode == 0, clean.stderr.decode()
    assert _read_tree(interrupted) == _read_tree(oracle)
    assert not os.path.exists(os.path.join(interrupted, ".runstate"))


class TestInterruptResumeOracle:
    """SIGINT mid-flight + the same command rerun == uninterrupted."""

    def test_differential_oracle(self, tmp_path):
        _interrupt_and_rerun(tmp_path, "serial")

    def test_pooled_differential_oracle(self, tmp_path):
        _interrupt_and_rerun(tmp_path, "pooled")


class TestCliErrors:
    def test_unknown_domain_exits_1_with_e_bind(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.artifact", "--no-cache",
             "--out", str(tmp_path / "out"),
             "--configs", "word_ml:1024"],
            env=_env(), capture_output=True, timeout=120)
        assert proc.returncode == 1
        stderr = proc.stderr.decode()
        assert "[E-BIND]" in stderr
        assert "word_lm" in stderr  # did-you-mean
        assert "Traceback" not in stderr

    def test_debug_flag_shows_traceback(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.artifact", "--no-cache",
             "--out", str(tmp_path / "out"), "--debug",
             "--configs", "word_ml:1024"],
            env=_env(), capture_output=True, timeout=120)
        assert proc.returncode != 0
        assert b"Traceback" in proc.stderr

    @pytest.mark.parametrize("module", ["repro.cli", "repro.artifact"])
    def test_negative_max_workers_is_a_usage_error(self, module,
                                                   tmp_path, capsys):
        import importlib

        main = importlib.import_module(module).main
        argv = (["table1"] if module == "repro.cli"
                else ["--no-cache", "--out", str(tmp_path / "out")])
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--max-workers", "-1"])
        assert excinfo.value.code == 2
        stderr = capsys.readouterr().err
        assert "argument --max-workers: must be a non-negative" in stderr
        assert "Traceback" not in stderr

    @pytest.mark.parametrize("spec", ["word_lm:1024,word_lm:1024",
                                      "word_lm:1024,image:1,"
                                      "word_lm:1024.0"])
    def test_repeated_config_exits_1_with_e_bind(self, spec, tmp_path,
                                                 capsys):
        from repro.artifact import main

        out = tmp_path / "out"
        assert main(["--no-cache", "--out", str(out),
                     "--configs", spec]) == 1
        stderr = capsys.readouterr().err
        assert "[E-BIND] config word_lm:1024 is listed twice" in stderr
        assert "Traceback" not in stderr
        assert not out.exists()       # refused before any work
