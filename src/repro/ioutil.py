"""Atomic file-write helpers shared by the artifact/export writers.

A killed run must never leave a truncated table, figure, or trace on
disk: every output file is written to a temp file in the destination
directory and published with ``os.replace`` (atomic on POSIX within a
filesystem), the same discipline
:meth:`repro.exec.store.ResultStore.put` already uses for cache
entries.  Readers therefore see either the complete previous version
or the complete new one, never a partial write.
"""

from __future__ import annotations

import os
import tempfile

from .errors import ReproIOError

__all__ = ["atomic_write_bytes", "atomic_write_text"]


def atomic_write_bytes(path: str, blob: bytes, *,
                       fsync: bool = False) -> str:
    """Write ``blob`` to ``path`` atomically (tmp + rename).

    With ``fsync=True`` the data is flushed to stable storage before
    the rename, so even a power loss cannot publish an empty file.
    Raises :class:`~repro.errors.ReproIOError` (E-IO) on failure.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=directory, prefix="." + os.path.basename(path) + ".",
            suffix=".tmp",
        )
        with os.fdopen(fd, "wb") as handle:
            handle.write(blob)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        # mkstemp creates 0600; published outputs should look like any
        # open()-written file, i.e. 0666 masked by the process umask
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
        tmp = None
    except OSError as error:
        raise ReproIOError(
            f"cannot write {path!r}: {error}",
            hint="check that the output directory exists and is "
                 "writable (and has free space)",
        ) from error
    finally:
        if tmp is not None and os.path.exists(tmp):
            try:
                os.unlink(tmp)
            except OSError:
                pass
    return path


def atomic_write_text(path: str, text: str, *,
                      fsync: bool = False) -> str:
    """Atomic UTF-8 text write; see :func:`atomic_write_bytes`."""
    return atomic_write_bytes(path, text.encode("utf-8"), fsync=fsync)

