"""Crash-safe file primitives shared by the cache tiers.

Layer-neutral home for the two invariants every on-disk tier relies
on: writes are atomic (readers see the old file or the new one, never a
prefix) and cross-process critical sections lock a stable inode.

A missing parent directory is created only when an open fails for
lack of it, so the steady state pays no ``mkdir``/``stat`` per call.
"""

from __future__ import annotations

import json
import os
import secrets
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, Optional, Tuple, TypeVar

try:  # pragma: no cover - always present on the POSIX targets
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None  # type: ignore[assignment]


T = TypeVar("T")


def _with_parent(path: Path, create: Callable[[], T]) -> T:
    """``create()``, retried once after making ``path``'s parent
    directory if it failed because that directory is missing."""
    try:
        return create()
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        return create()


@contextmanager
def locked_file(lock_path: Path) -> Iterator[None]:
    """Exclusive advisory lock held for the duration of the block.

    The lock file is created on demand and never removed or replaced,
    so every process locks the same inode (locking a file that gets
    ``os.replace``-d protects nothing).  Blocking is fine here:
    critical sections are a single small-file read-merge-write.  On
    platforms without ``fcntl`` this degrades to no locking.
    """
    with _with_parent(lock_path, lambda: open(lock_path, "a+")) as handle:
        if fcntl is not None:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        try:
            yield
        finally:
            if fcntl is not None:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)


@contextmanager
def try_locked_file(lock_path: Path) -> Iterator[bool]:
    """Non-blocking variant of :func:`locked_file`.

    Yields ``True`` with the lock held, or ``False`` immediately if
    another process holds it — callers that merely *want* a maintenance
    pass (cap-triggered GC) skip instead of queueing behind the pass
    already running.  Without ``fcntl`` this degrades to "always
    acquired", matching :func:`locked_file`.
    """
    with _with_parent(lock_path, lambda: open(lock_path, "a+")) as handle:
        if fcntl is None:
            yield True
            return
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            yield False
            return
        try:
            yield True
        finally:
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)


def _create_temp(path: Path) -> Tuple[int, str]:
    """A new, uniquely named file beside ``path``: its descriptor, open
    for writing, and its name.

    Mode 0o666 lets the umask apply, as ``open()`` does;
    ``tempfile.mkstemp`` would make every file 0600.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL
    while True:
        name = str(path.parent / f".{path.name}.{secrets.token_hex(4)}.tmp")
        try:
            return os.open(name, flags, 0o666), name
        except FileExistsError:
            continue


def atomic_write_json(
    path: Path,
    payload: Any,
    *,
    sort_keys: bool = False,
    indent: Optional[int] = 2,
) -> None:
    """Write ``payload`` as JSON via tempfile + ``os.replace``.

    Readers either see the old file or the new one, never a torn
    prefix — so a crash mid-write cannot corrupt a cache file.  A new
    file gets the mode ``open()`` would give it under the umask.
    ``sort_keys`` makes the byte stream independent of dict insertion
    order — required for artifacts with a byte-identical-reproduction
    contract (scoreboard baselines).

    The default ``indent=2`` keeps committed artifacts readable and
    their bytes stable.  Pass ``indent=None`` for files written on a
    hot path (the cache store's shards and index): the output is then
    compact, with no whitespace, and ``json.dumps`` can use its C
    encoder, which indented output rules out.
    """
    separators = (",", ":") if indent is None else None
    text = json.dumps(
        payload, indent=indent, separators=separators, sort_keys=sort_keys
    )
    handle, temp_name = _with_parent(path, lambda: _create_temp(path))
    try:
        with os.fdopen(handle, "w") as stream:
            stream.write(text)
            stream.write("\n")
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise
