"""Persistent run history: every CLI run leaves a durable record.

The paper's longitudinal claims (and its cited follow-ups — Hernandez
& Brown's algorithmic-efficiency measurements are cross-*run*
comparisons) need metrics that outlive the process that produced them.
This module is that memory: each ``repro-report`` /
``python -m repro.artifact`` invocation appends one **run record** to
a bounded JSONL history file:

* **content-addressed** — the ``run_id`` is the SHA-256 of the
  canonical-JSON record (minus the id itself), so identical runs have
  identical ids and a record can be re-verified against its id;
* **atomic** — one record is one ``write`` + flush + fsync of a single
  line, so a dying process can at worst truncate the final line,
  which :meth:`RunHistory.load` tolerates;
* **self-contained** — the record carries the full metrics snapshot
  (histograms keep their log2 buckets, so percentiles remain
  answerable), a span-time rollup by dotted name prefix, the run's
  config, engine/version keys, and the exit status;
* **bounded** — an append that takes the file past
  :data:`MAX_RECORDS` drops the oldest records, as the result store's
  ``max_entries`` evicts its oldest entries.

The history lives under the result-store cache dir by default
(``$REPRO_CACHE_DIR``-aware) and ``$REPRO_HISTORY`` overrides the file
path outright.  ``repro-obs list/show/diff/check`` are the readers.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

from .. import __version__
from . import metrics as _metrics
from . import tracer as _tracer
from .tracer import Span

__all__ = [
    "RunHistory",
    "RunRecorder",
    "history_path",
    "span_rollup",
    "SCHEMA_VERSION",
    "MAX_RECORDS",
]

SCHEMA_VERSION = 1

#: records a history file keeps.  An append past the bound rewrites
#: the file with the newest ``MAX_RECORDS - MAX_RECORDS // 8`` (the
#: result store's low-water rule), so a full history is rewritten once
#: every ``MAX_RECORDS // 8`` runs, not on every run.
MAX_RECORDS = 512

_APPENDED = _metrics.counter("obs.history.appended")
_APPEND_FAILED = _metrics.counter("obs.history.append_failed")
_LOAD_DROPPED = _metrics.counter("obs.history.lines_dropped")


def history_path() -> str:
    """The run-history JSONL path: ``$REPRO_HISTORY`` or
    ``<cache-dir>/history.jsonl``."""
    env = os.environ.get("REPRO_HISTORY")
    if env:
        return env
    from ..exec.store import default_cache_dir

    return os.path.join(default_cache_dir(), "history.jsonl")


def span_rollup(span_list: Optional[Sequence[Span]] = None
                ) -> Dict[str, Dict[str, Any]]:
    """Aggregate span wall time by name and by dotted name prefix.

    Returns ``{key: {count, total_ns, max_ns, errors}}`` where keys are
    the exact span names plus every dotted prefix with a ``.*``
    suffix — e.g. one ``exec.task`` span contributes to ``exec.task``
    and ``exec.*``.  Prefix rows aggregate *over* their members, so
    they are for within-key comparison across runs, not for summing
    with the exact rows.
    """
    if span_list is None:
        span_list = _tracer.TRACER.spans()
    rollup: Dict[str, Dict[str, Any]] = {}
    for span in span_list:
        keys = [span.name]
        parts = span.name.split(".")
        for i in range(1, len(parts)):
            keys.append(".".join(parts[:i]) + ".*")
        dur = span.duration_ns
        for key in keys:
            entry = rollup.setdefault(
                key, {"count": 0, "total_ns": 0, "max_ns": 0,
                      "errors": 0})
            entry["count"] += 1
            entry["total_ns"] += dur
            entry["max_ns"] = max(entry["max_ns"], dur)
            entry["errors"] += 1 if span.error else 0
    return rollup


def _canonical(record: Dict[str, Any]) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"),
                      default=str)


class RunHistory:
    """Reader/appender for one run-history JSONL file."""

    def __init__(self, path: Optional[str] = None):
        self.path = path if path is not None else history_path()

    # -- writing -------------------------------------------------------
    def append(self, record: Dict[str, Any]) -> str:
        """Append one run record; returns its content-addressed id.

        The ``run_id`` is computed over the record *without* the id
        field, then stored in it; the line is published with a single
        write + flush + fsync.
        """
        record = dict(record)
        record.pop("run_id", None)
        run_id = hashlib.sha256(
            _canonical(record).encode("utf-8")).hexdigest()
        record["run_id"] = run_id
        line = _canonical(record) + "\n"
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line)
            handle.flush()
            try:
                os.fsync(handle.fileno())
            except OSError:  # e.g. history on a pipe in tests
                pass
        _APPENDED.inc()
        self._trim()
        return run_id

    def _trim(self) -> None:
        """Drop the oldest records once the file holds more than
        :data:`MAX_RECORDS`.  The rewrite is atomic (tmp + rename); a
        record another process appends between its read and its rename
        is lost, and a failed rewrite leaves the file long until the
        next append retries."""
        from ..errors import ReproIOError
        from ..ioutil import atomic_write_bytes

        if not os.path.isfile(self.path):  # e.g. /dev/null, a pipe
            return
        with open(self.path, "rb") as handle:
            blob = handle.read()
        if blob.count(b"\n") <= MAX_RECORDS:
            return
        keep = blob.splitlines(keepends=True)[
            -(MAX_RECORDS - MAX_RECORDS // 8):]
        try:
            atomic_write_bytes(self.path, b"".join(keep))
        except ReproIOError:
            pass

    # -- reading -------------------------------------------------------
    def load(self) -> List[Dict[str, Any]]:
        """All run records, oldest first; corrupt/truncated lines are
        dropped (and counted), never fatal."""
        records: List[Dict[str, Any]] = []
        try:
            handle = open(self.path, "r", encoding="utf-8")
        except OSError:
            return records
        with handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    _LOAD_DROPPED.inc()
                    continue
                if isinstance(record, dict) and record.get("run_id"):
                    records.append(record)
                else:
                    _LOAD_DROPPED.inc()
        return records

    def get(self, run_id: str) -> Optional[Dict[str, Any]]:
        """Look a record up by full id or unique prefix.

        Special names: ``latest`` / ``last`` (most recent record) and
        ``prev`` (the one before it).  Returns None when nothing (or
        more than one record) matches a prefix.
        """
        records = self.load()
        if run_id in ("latest", "last"):
            return records[-1] if records else None
        if run_id == "prev":
            return records[-2] if len(records) >= 2 else None
        matches = [r for r in records
                   if str(r.get("run_id", "")).startswith(run_id)]
        if len(matches) == 1:
            return matches[0]
        exact = [r for r in matches if r.get("run_id") == run_id]
        return exact[-1] if exact else None

    def latest(self) -> Optional[Dict[str, Any]]:
        records = self.load()
        return records[-1] if records else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RunHistory({self.path!r})"


class RunRecorder:
    """Capture one CLI run as a history record.

    Constructed before the run body starts and finished with the exit
    code after the body returns or raises::

        recorder = RunRecorder("repro.artifact", config={...})
        ...
        recorder.finish(exit_code)

    ``finish`` snapshots the metrics registry, rolls up the recorded
    spans, and appends the record.  It never raises: history is an
    observer, not a gate (failures are counted in
    ``obs.history.append_failed``).
    """

    def __init__(self, command: str, *,
                 config: Optional[Dict[str, Any]] = None,
                 path: Optional[str] = None):
        self.command = command
        self.config = dict(config) if config else {}
        self.path = path
        self.started = time.time()
        self._t0 = _tracer.monotonic_ns()
        self.run_id: Optional[str] = None

    def finish(self, exit_code: int) -> Optional[str]:
        """Append the record for a run that exited with ``exit_code``;
        returns the run id (None if the append failed)."""
        from ..errors import EXIT_RESUMABLE

        status = {0: "ok", EXIT_RESUMABLE: "interrupted"}.get(
            exit_code, "error")
        record = {
            "schema": SCHEMA_VERSION,
            "command": self.command,
            "config": self.config,
            "started": round(self.started, 3),
            "duration_s": round(
                (_tracer.monotonic_ns() - self._t0) / 1e9, 6),
            "exit_code": int(exit_code),
            "status": status,
            "engine": {
                "version": __version__,
                "python": ".".join(str(v)
                                   for v in sys.version_info[:3]),
                "platform": sys.platform,
            },
            "metrics": _metrics.snapshot(),
            "spans": span_rollup(),
            "n_spans": len(_tracer.TRACER.spans()),
        }
        try:
            self.run_id = RunHistory(self.path).append(record)
        except Exception:
            _APPEND_FAILED.inc()
            return None
        return self.run_id
