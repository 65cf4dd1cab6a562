"""Journaled, crash-safe GC and compaction for the sharded cache store.

The sharded tier (:mod:`repro.server.shards`) keeps individual writes
torn-proof, but a *bounded* store needs a maintenance pass that deletes
things — and deletion across many shard files cannot be atomic.  This
module makes it crash-safe instead: every pass writes its plan to a
journal first, then executes it in idempotent steps, so a SIGKILL at
any instant leaves a store the next opener can finish or discard.

Journal protocol (``gc-journal.json`` in the store root, written via
atomic replace):

``planned``
    The eviction plan is on disk: the set of keys to remove, each with
    the creation stamp it had when chosen.  Nothing has been deleted
    yet.  Crash here → resume re-executes the sweep from the plan.
``sweeping``
    Shard rewrites are in flight.  Each key is removed only if its
    creation stamp still matches the plan, so re-running the sweep
    after a crash is idempotent *and* cannot destroy an entry that a
    concurrent writer refreshed after the plan was taken.  Crash here
    → resume re-sweeps; already-removed keys are simply absent.
``committed``
    All shard rewrites landed and the index was rebuilt.  The only
    remaining step is deleting the journal.  Crash here → resume just
    cleans up.

A corrupt journal is damage like a corrupt shard: quarantined, the
index rebuilt from shards, and the pass abandoned — surviving entries
stay servable because nothing sweeps without a readable plan.

Passes are serialized by a non-blocking ``gc.lock``: the write path
that notices the store over cap *requests* a pass and skips if one is
already running; ``python -m repro cache gc`` waits its turn.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.service import faults
from repro.server.shards import (
    ShardedDiskTier,
    atomic_write_json,
    quarantine_file,
    ttl_now,
)
from repro.utils.clock import wall_now
from repro.utils.fileio import locked_file, try_locked_file

JOURNAL_NAME = "gc-journal.json"
JOURNAL_TYPE = "portfolio_cache_gc_journal"
JOURNAL_FORMAT_VERSION = 1

STATE_PLANNED = "planned"
STATE_SWEEPING = "sweeping"
STATE_COMMITTED = "committed"

TMP_ORPHAN_SECONDS = 300.0
"""Age past which a leftover ``.tmp`` file is an orphan (a live atomic
write holds its tempfile for milliseconds)."""

CORRUPT_RETENTION_SECONDS = 7 * 24 * 3600.0
"""How long quarantined ``*.corrupt-*`` files are kept for postmortems
before compaction reclaims the space."""

MAX_PASSES = 3
"""Cap-enforcement passes per :func:`run_gc` call: concurrent writers
can push the store back over cap mid-sweep, so one pass may not land
under the limit — but unbounded looping against a firehose would never
return."""

logger = logging.getLogger(__name__)


@dataclass
class GcReport:
    """What one :func:`run_gc` call did (or why it did nothing)."""

    ran: bool = False
    resumed: bool = False
    passes: int = 0
    evicted_keys: List[str] = field(default_factory=list)
    expired_keys: List[str] = field(default_factory=list)
    removed_tmp: int = 0
    removed_corrupt: int = 0
    removed_empty_shards: int = 0
    bytes_after: int = 0
    entries_after: int = 0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "ran": self.ran,
            "resumed": self.resumed,
            "passes": self.passes,
            "evicted": len(self.evicted_keys),
            "expired": len(self.expired_keys),
            "removed_tmp": self.removed_tmp,
            "removed_corrupt": self.removed_corrupt,
            "removed_empty_shards": self.removed_empty_shards,
            "bytes_after": self.bytes_after,
            "entries_after": self.entries_after,
        }


def _gc_lock(tier: ShardedDiskTier) -> Path:
    return tier.root / "gc.lock"


# ----------------------------------------------------------------------
# Journal IO
# ----------------------------------------------------------------------
def _write_journal(tier: ShardedDiskTier, payload: Dict[str, Any]) -> None:
    atomic_write_json(tier.journal_path(), payload, sort_keys=True)


def _read_journal(tier: ShardedDiskTier) -> Optional[Dict[str, Any]]:
    path = tier.journal_path()
    try:
        with open(path) as stream:
            payload = json.load(stream)
    except FileNotFoundError:
        return None
    except (OSError, ValueError) as exc:
        if quarantine_file(path, f"bad GC journal: {exc}") is not None:
            tier.quarantined += 1
        return None
    if (
        not isinstance(payload, dict)
        or payload.get("type") != JOURNAL_TYPE
        or payload.get("version", 0) > JOURNAL_FORMAT_VERSION
        or not isinstance(payload.get("evict"), dict)
        or payload.get("state")
        not in (STATE_PLANNED, STATE_SWEEPING, STATE_COMMITTED)
    ):
        if quarantine_file(path, "not a GC journal") is not None:
            tier.quarantined += 1
        return None
    return payload


def _clear_journal(tier: ShardedDiskTier) -> None:
    try:
        os.unlink(tier.journal_path())
    except FileNotFoundError:
        pass


# ----------------------------------------------------------------------
# Planning
# ----------------------------------------------------------------------
def _plan_evictions(
    tier: ShardedDiskTier, index: Dict[str, Any]
) -> Tuple[Dict[str, float], List[str], List[str]]:
    """Choose what dies: ``{key: created-stamp}`` plus the split into
    TTL-expired and cap-evicted keys (for reporting).

    Order: TTL-expired entries go unconditionally; then entries leave
    least-recently-used-first until both caps hold.  Legacy entries
    (no stamps, ``a == 0``) naturally sort oldest, so a bounded store
    sheds its unstamped history before anything it can actually age.
    """
    limits = tier.limits
    entries: Dict[str, Dict[str, Any]] = index.get("entries", {})
    now = ttl_now()
    doomed: Dict[str, float] = {}
    expired: List[str] = []
    for key, meta in entries.items():
        if limits.expired(meta.get("c") or 0, now):
            doomed[key] = float(meta.get("c") or 0)
            expired.append(key)

    total_bytes = sum(
        int(meta.get("b", 0) or 0)
        for key, meta in entries.items()
        if key not in doomed
    )
    total_entries = len(entries) - len(doomed)
    evicted: List[str] = []
    if limits.over_caps(total_bytes, total_entries):
        by_lru = sorted(
            (key for key in entries if key not in doomed),
            key=lambda key: (
                entries[key].get("a") or 0,
                entries[key].get("c") or 0,
                key,
            ),
        )
        for key in by_lru:
            if not limits.over_caps(total_bytes, total_entries):
                break
            meta = entries[key]
            doomed[key] = float(meta.get("c") or 0)
            evicted.append(key)
            total_bytes -= int(meta.get("b", 0) or 0)
            total_entries -= 1
    return doomed, expired, evicted


# ----------------------------------------------------------------------
# Sweep + compaction
# ----------------------------------------------------------------------
def _sweep(tier: ShardedDiskTier, doomed: Dict[str, float]) -> List[str]:
    """Remove planned keys from their shards; returns what was removed.

    A key is removed only while its on-disk creation stamp still equals
    the planned one — an entry rewritten since the plan is *newer data*
    the plan knows nothing about, and survives.  Keys already absent
    (a previous crashed sweep got them) are skipped silently, which is
    what makes re-running a journal idempotent.
    """
    by_shard: Dict[Path, List[str]] = {}
    for key in doomed:
        by_shard.setdefault(tier.shard_path(key), []).append(key)
    removed: List[str] = []
    crash_armed = True
    for shard, keys in sorted(by_shard.items()):
        with locked_file(tier._store_lock()):
            data = tier._read_shard(shard)
            entries = data["entries"]
            meta = data["meta"]
            dropped = False
            for key in keys:
                if key not in entries:
                    continue
                stamp = float((meta.get(key) or {}).get("c") or 0)
                if stamp != doomed[key]:
                    continue  # refreshed since the plan: keep it
                entries.pop(key)
                meta.pop(key, None)
                removed.append(key)
                dropped = True
            if dropped:
                tier._write_shard(shard, entries, meta)
        if crash_armed and removed:
            crash_armed = False
            faults.maybe_crash_gc("mid-sweep")
    return removed


def _compact(tier: ShardedDiskTier, report: GcReport) -> None:
    """Reclaim dead weight: orphaned tempfiles, aged quarantine files,
    and shards whose last entry was just evicted."""
    now = wall_now()
    for leftover in tier.root.glob(".*.tmp"):
        try:
            if now - leftover.stat().st_mtime > TMP_ORPHAN_SECONDS:
                leftover.unlink()
                report.removed_tmp += 1
        except OSError:
            continue
    for corrupt in tier.root.glob("*.corrupt-*"):
        try:
            if now - corrupt.stat().st_mtime > CORRUPT_RETENTION_SECONDS:
                corrupt.unlink()
                report.removed_corrupt += 1
        except OSError:
            continue
    for shard in sorted(tier.root.glob("shard-*.json")):
        with locked_file(tier._store_lock()):
            if not tier._read_shard(shard)["entries"]:
                try:
                    shard.unlink()
                    report.removed_empty_shards += 1
                except OSError:
                    pass


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
def _execute_journal(
    tier: ShardedDiskTier, journal: Dict[str, Any], report: GcReport
) -> None:
    """Drive one journal from its current state to completion.

    The caller holds the GC lock.  Every step is safe to repeat, so
    this same function serves both fresh passes and crash resume.
    """
    state = journal["state"]
    doomed = {
        key: float(stamp) for key, stamp in journal["evict"].items()
    }
    if state in (STATE_PLANNED, STATE_SWEEPING):
        if state == STATE_PLANNED:
            faults.maybe_crash_gc(STATE_PLANNED)
            journal = dict(journal, state=STATE_SWEEPING)
            _write_journal(tier, journal)
        removed = _sweep(tier, doomed)
        report.evicted_keys.extend(removed)
        tier.store_evictions += len(removed)
        _compact(tier, report)
        tier.rebuild_index()
        journal = dict(journal, state=STATE_COMMITTED)
        _write_journal(tier, journal)
        faults.maybe_crash_gc(STATE_COMMITTED)
    _clear_journal(tier)


def _one_pass(tier: ShardedDiskTier, report: GcReport) -> None:
    index = tier.load_index(verify=True)
    doomed, expired, _evicted = _plan_evictions(tier, index)
    report.expired_keys.extend(expired)
    journal = {
        "type": JOURNAL_TYPE,
        "version": JOURNAL_FORMAT_VERSION,
        "state": STATE_PLANNED,
        "evict": doomed,
        "planned_at": wall_now(),
    }
    _write_journal(tier, journal)
    _execute_journal(tier, journal, report)


def run_gc(tier: ShardedDiskTier, *, block: bool = True) -> GcReport:
    """Run a full GC/compaction pass; returns what happened.

    With ``block=False`` (the write path's cap trigger) the call
    returns immediately when another process holds the GC lock — that
    process's pass is already bringing the store under cap.  Repeats
    up to :data:`MAX_PASSES` while concurrent writers keep pushing the
    store back over its caps.
    """
    report = GcReport()
    with try_locked_file(_gc_lock(tier)) as acquired:
        if not acquired:
            if not block:
                return report
        elif _finish_and_run(tier, report):
            return report
    if not block:
        return report
    # Blocking request that lost the race: queue behind the running
    # pass, then run our own (the store may have grown meanwhile).
    with locked_file(_gc_lock(tier)):
        _finish_and_run(tier, report)
    return report


def _finish_and_run(tier: ShardedDiskTier, report: GcReport) -> bool:
    """Under the GC lock: resume any pending journal, then run fresh
    passes until the caps hold (or :data:`MAX_PASSES` is spent)."""
    pending = _read_journal(tier)
    if pending is not None:
        report.resumed = True
        _execute_journal(tier, pending, report)
    for _ in range(MAX_PASSES):
        report.ran = True
        report.passes += 1
        tier.gc_runs += 1
        _one_pass(tier, report)
        if not tier.limits.over_caps(
            tier.bytes_used(), tier.entry_count()
        ):
            break
    report.bytes_after = tier.bytes_used()
    report.entries_after = tier.entry_count()
    return True


def resume_pending(tier: ShardedDiskTier) -> Optional[GcReport]:
    """Finish a journal left by a GC pass that died mid-flight.

    Called on every store open.  The common case (no journal) is one
    ``stat`` and returns ``None``.  When another process holds the GC
    lock the journal is *its* live pass, not a crash leftover — skip.
    """
    try:
        if not tier.journal_path().exists():
            return None
    except OSError:
        return None
    report = GcReport()
    with try_locked_file(_gc_lock(tier)) as acquired:
        if not acquired:
            return None
        pending = _read_journal(tier)
        if pending is None:
            return None
        logger.warning(
            "resuming interrupted cache GC in %s (state=%s, %d planned)",
            tier.root,
            pending.get("state"),
            len(pending.get("evict", {})),
        )
        report.resumed = True
        _execute_journal(tier, pending, report)
        report.bytes_after = tier.bytes_used()
        report.entries_after = tier.entry_count()
    return report


__all__ = [
    "GcReport",
    "JOURNAL_NAME",
    "STATE_COMMITTED",
    "STATE_PLANNED",
    "STATE_SWEEPING",
    "resume_pending",
    "run_gc",
]
