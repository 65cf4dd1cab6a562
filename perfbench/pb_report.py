"""Percentiles, the provenance stamp, and the result writer."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import re
import resource
import subprocess
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Tuple

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
"""Metric names: letters, digits, ``_``, ``.`` and ``-``, at most 64."""

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "optimal_frac": "ratio",
    "mean_depth_ratio": "ratio",
    "success_frac": "ratio",
    "peak_rss_mb": "MB",
}
"""Every end-to-end metric an untraced run reports, with its unit."""


def percentile(samples: Sequence[float], q: float) -> Tuple[float, int]:
    """Nearest-rank ``q``-th percentile and the number of samples beyond it.

    The second value says how much evidence the tail estimate rests on:
    a p95 over 40 samples has only two samples beyond it.
    """
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def highest_supported_percentile(count: int, beyond: int = 10) -> Optional[float]:
    """The highest whole percentile with at least ``beyond`` samples
    beyond it among ``count`` samples, or None when there is none."""
    best = None
    for q in range(1, 100):
        rank = max(1, math.ceil(q / 100.0 * count))
        if count - rank >= beyond:
            best = float(q)
    return best


def peak_rss_mb() -> float:
    """Peak resident memory of this process, in MB; a run starts no
    other process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Provenance stamp
# ----------------------------------------------------------------------
def _git(root: Path, *args: str) -> Optional[str]:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(root), *args],
            capture_output=True, text=True, timeout=30, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest(root: Path) -> str:
    """sha256 over the program and benchmark sources (relative path and
    content of each), so a result from a checkout without git history
    still names the code it measured."""
    digest = hashlib.sha256()
    files = sorted(
        list((root / "src").rglob("*.py")) + list((root / "perfbench").glob("*"))
    )
    for path in files:
        if path.is_file():
            digest.update(path.relative_to(root).as_posix().encode() + b"\0")
            digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def stamp(root: Path, *, workload: str, seed: int, trace: bool) -> Dict[str, Any]:
    """Where a result came from: code, interpreter, machine, inputs."""
    status = _git(root, "status", "--porcelain", "--untracked-files=no")
    return {
        "commit": _git(root, "rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "source_sha256": source_digest(root),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "seed": seed,
        "workload": workload,
        "trace": trace,
    }


def write_json(path: Path, payload: Dict[str, Any]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
