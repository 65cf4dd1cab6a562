"""The one writer of the ``BENCH_<name>.json`` benchmark artifacts.

A benchmark module records named entries with :func:`record_entry`; the
artifact is rewritten after every entry, so a run that fails half-way
still leaves the entries that completed.  It lands in the current
directory, or in ``REPRO_BENCH_DIR`` when that is set, and carries a
``stamp`` of what the numbers were measured on: the commit (``-dirty``
when the checkout has uncommitted changes), the Python version and
``os.cpu_count()``.
"""

from __future__ import annotations

import functools
import json
import os
import platform
import subprocess
from pathlib import Path
from typing import Any, Dict

_ENTRIES: Dict[str, Dict[str, Any]] = {}


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args],
        cwd=Path(__file__).resolve().parent,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.strip()


@functools.lru_cache(maxsize=None)
def _stamp() -> Dict[str, Any]:
    """Commit, Python version and CPU count of this run."""
    try:
        commit = _git("rev-parse", "HEAD")
        if _git("status", "--porcelain"):
            commit += "-dirty"
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "commit": commit,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
    }


def record_entry(benchmark: str, name: str, payload: Dict[str, Any]) -> None:
    """Add entry ``name`` to ``BENCH_<benchmark>.json`` and rewrite it."""
    entries = _ENTRIES.setdefault(benchmark, {})
    entries[name] = payload
    directory = Path(os.environ.get("REPRO_BENCH_DIR", "."))
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / f"BENCH_{benchmark}.json", "w") as stream:
        json.dump(
            {"benchmark": benchmark, "entries": entries, "stamp": _stamp()},
            stream,
            indent=2,
            sort_keys=True,
        )
        stream.write("\n")
