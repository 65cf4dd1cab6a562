"""Shared experiment plumbing: scale resolution, seeds, JSON output.

Experiment runners go through the portfolio service rather than calling
individual solvers: :func:`service_members` builds the member list for
one instance (heuristic columns plus an exact certifier when the
instance is small enough to certify), and :func:`resolve_workers` reads
the batch fan-out width from ``REPRO_WORKERS``.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional, Sequence, Tuple

from repro.utils.fileio import atomic_write_json
from repro.utils.rng import spawn_seeds

ENV_FULL = "REPRO_FULL"
ENV_WORKERS = "REPRO_WORKERS"

CERTIFIER_MEMBER = "sap"
"""The exact backend experiment runners race alongside the heuristics."""


def resolve_scale(explicit: Optional[str] = None) -> str:
    """``paper`` when requested explicitly or via ``REPRO_FULL=1``."""
    if explicit in ("quick", "paper"):
        return explicit
    if os.environ.get(ENV_FULL, "").strip() in ("1", "true", "yes"):
        return "paper"
    return "quick"


def resolve_workers(explicit: Optional[int] = None) -> int:
    """Batch pool width: explicit argument, else ``REPRO_WORKERS``, else 1."""
    if explicit is not None:
        return max(1, explicit)
    text = os.environ.get(ENV_WORKERS, "").strip()
    if text.isdigit() and int(text) > 0:
        return int(text)
    return 1


def service_members(
    heuristics: Sequence[str], *, certify: bool = True
) -> Tuple[str, ...]:
    """Portfolio member list for one experiment instance.

    Heuristic columns run first (their depths feed the per-column
    tables); with ``certify`` the exact SAP backend closes the race and
    proves the optimum.
    """
    members = tuple(heuristics)
    if certify and CERTIFIER_MEMBER not in members:
        members = members + (CERTIFIER_MEMBER,)
    return members


def case_seed(root_seed: int, case_id: str, salt: str = "") -> int:
    """Deterministic per-case seed independent of execution order."""
    return spawn_seeds(root_seed, 1, salt=f"{salt}/{case_id}")[0]


def write_json(path: str, payload: object) -> None:
    """Write a JSON result file (sorted keys, indent 2) by atomic
    replace, creating parent directories."""
    atomic_write_json(Path(path), payload, sort_keys=True)
