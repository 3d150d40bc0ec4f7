"""Content-addressed on-disk result store (the warm-start layer).

Every cacheable unit of the artifact pipeline — a per-config analysis
report, a rendered table/figure, a served query — is
stored under a key that hashes *everything that could change the
value*:

* the source digest (:func:`source_digest`): SHA-256 over every
  ``*.py`` file of the ``repro`` package plus the Python minor version
  and ``numpy.__version__``, so editing a constant, a cost formula or
  a graph builder invalidates every key;
* the bindings (domain, size, subbatch, exhibit name, a served
  query's normalized parameters);
* the package version (:data:`repro.__version__`).

Values are pickled to ``<root>/<kk>/<key>.pkl`` (two-level fan-out
keeps directories small).  The store is append-mostly with an LRU-ish
eviction pass by file mtime when ``max_entries`` is exceeded.  A put
under the bound only counts its new key; the pass scans the directory
and trims to a low-water mark below the bound, so a full store does
not rescan on every put.

Hits, misses, stores, and evictions are counted in :mod:`repro.obs`
metrics (``exec.store.*``) so ``--metrics`` shows cache effectiveness.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import sys
import tempfile
import threading
from typing import Any, Dict, Iterable, Optional, Tuple

from .. import __version__
from ..obs.metrics import counter as _obs_counter

__all__ = ["ResultStore", "content_key", "default_cache_dir",
           "source_digest"]

_HIT = _obs_counter("exec.store.hit")
_MISS = _obs_counter("exec.store.miss")
_PUT = _obs_counter("exec.store.put")
_EVICT = _obs_counter("exec.store.eviction")
_ERROR = _obs_counter("exec.store.error")

#: sentinel distinguishing "no entry" from a stored ``None``
_MISSING = object()


#: the memoized :func:`source_digest` (computed on the first key, not
#: at import, so interpreter start-up does not pay for it)
_SOURCE_DIGEST: Optional[str] = None


def source_digest() -> str:
    """SHA-256 of the ``repro`` source tree and its numeric runtime.

    Every result the store holds is a pure function of the package's
    code (constants, cost formulas, graph builders) and its key's own
    bindings, so hashing each ``*.py`` file's relative path and bytes,
    in sorted order, plus the Python minor version and
    ``numpy.__version__``, covers every input no binding names.
    Computed once per process (a few ms).
    """
    global _SOURCE_DIGEST
    if _SOURCE_DIGEST is None:
        import numpy

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        files = []
        for dirpath, _, names in os.walk(root):
            for name in names:
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    rel = os.path.relpath(path, root).replace(os.sep, "/")
                    files.append((rel, path))
        digest = hashlib.sha256()
        digest.update(repr((tuple(sys.version_info[:2]),
                            numpy.__version__)).encode("utf-8"))
        for rel, path in sorted(files):
            with open(path, "rb") as handle:
                blob = handle.read()
            digest.update(f"\0{rel}\0{len(blob)}\0".encode("utf-8"))
            digest.update(blob)
        _SOURCE_DIGEST = digest.hexdigest()
    return _SOURCE_DIGEST


def content_key(*parts: Any) -> str:
    """SHA-256 key over canonical-JSON-encoded parts, the package
    version and the :func:`source_digest`.

    Parts must be JSON-encodable (dicts are key-sorted; floats keep
    full ``repr`` precision through ``json``).  The source digest is
    always folded in, so any code change — a constant, a cost formula,
    a graph builder — misses cleanly instead of reusing stale results.
    """
    payload = {"version": __version__, "source": source_digest(),
               "parts": parts}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def default_cache_dir() -> str:
    """Default store root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


class ResultStore:
    """Pickle-backed content-addressed store with mtime eviction.

    ``get``/``put`` never raise on a corrupt or unwritable entry: a
    result store is an accelerator, not a source of truth, so IO and
    unpickling problems degrade to a miss (counted in
    ``exec.store.error``).
    """

    def __init__(self, root: str, *,
                 max_entries: Optional[int] = 4096):
        self.root = root
        self.max_entries = max_entries
        os.makedirs(root, exist_ok=True)
        # entries this process knows of: counted once here, then one
        # per put of a new key; an eviction pass recounts (other
        # processes sharing the directory show up there)
        self._count_lock = threading.Lock()
        self._count = (0 if max_entries is None
                       else sum(1 for _ in self._entries()))

    # -- key/path layout ----------------------------------------------
    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".pkl")

    # -- primitives ----------------------------------------------------
    def get(self, key: str, default: Any = None) -> Any:
        value = self._read(key)
        if value is _MISSING:
            _MISS.inc()
            return default
        _HIT.inc()
        return value

    def contains(self, key: str) -> bool:
        return os.path.exists(self._path(key))

    def _read(self, key: str) -> Any:
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                value = pickle.load(handle)
        except FileNotFoundError:
            return _MISSING
        except Exception:  # corrupt entry: drop it, treat as miss
            _ERROR.inc()
            try:
                os.unlink(path)
            except OSError:
                pass
            return _MISSING
        try:  # LRU signal for the eviction pass
            os.utime(path, None)
        except OSError:
            pass
        return value

    def put(self, key: str, value: Any) -> bool:
        """Store ``value``; returns False (and counts an error) on IO
        or pickling failure rather than raising."""
        path = self._path(key)
        counted = (self.max_entries is not None
                   and not os.path.exists(path))
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            # write-then-rename so concurrent readers never see a
            # half-written pickle
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                       suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    pickle.dump(value, handle,
                                protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        except Exception:
            _ERROR.inc()
            return False
        _PUT.inc()
        if counted:
            with self._count_lock:
                self._count += 1
                over = self._count > self.max_entries
            if over:
                self._evict()
        return True

    # -- maintenance ---------------------------------------------------
    def _entries(self) -> Iterable[Tuple[float, str]]:
        for sub in os.scandir(self.root):
            if not sub.is_dir():
                continue
            for entry in os.scandir(sub.path):
                if entry.name.endswith(".pkl"):
                    try:
                        yield entry.stat().st_mtime, entry.path
                    except OSError:
                        continue

    def _evict(self) -> int:
        """Past ``max_entries``, drop the oldest entries down to the
        low-water mark (the bound less an eighth); returns count."""
        entries = sorted(self._entries())
        bound = self.max_entries or 0
        excess = 0
        if len(entries) > bound:
            excess = len(entries) - (bound - bound // 8)
        dropped = 0
        for _, path in entries[:excess]:
            try:
                os.unlink(path)
                dropped += 1
            except OSError:
                continue
        with self._count_lock:
            self._count = len(entries) - dropped
        if dropped:
            _EVICT.inc(dropped)
        return dropped

    def clear(self) -> int:
        """Remove every entry; returns the number removed."""
        removed = 0
        for _, path in list(self._entries()):
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                continue
        with self._count_lock:
            self._count = max(0, self._count - removed)
        return removed

    def stats(self) -> Dict[str, Any]:
        entries = list(self._entries())
        return {
            "root": self.root,
            "entries": len(entries),
            "bytes": sum(
                os.path.getsize(p) for _, p in entries
                if os.path.exists(p)
            ),
            "max_entries": self.max_entries,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultStore({self.root!r})"
