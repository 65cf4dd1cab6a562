"""Benchmarks for the bounded cache store's lifecycle machinery.

Two measurements, written to ``BENCH_cache.json`` (directory
overridable via ``REPRO_BENCH_DIR``):

* **eviction overhead on the hot read path** — shard format v2 added a
  TTL check and access-stamp recording (the LRU signal) to every
  ``ShardedDiskTier.get``.  That machinery lives on the read path
  permanently, so its cost is measured directly (a tight loop over the
  per-read eviction steps) against the measured full ``get`` time, and
  asserted ≤ 2% — the read path is dominated by the shard open + parse
  + flock it always paid, and must stay that way.  The integrity
  verification (sha over the re-canonicalized payload) is a separate,
  deliberate cost; it is recorded alongside for visibility but carries
  no line — refusing corrupt payloads is worth microseconds.
* **full-GC latency** — populate a store, cap it at half, and time the
  complete journaled pass (plan, sweep, compaction, index rebuild).
  Hardware-dependent; recorded only, alongside the per-entry rate so
  runs on different corpus sizes stay comparable.
* **store write per miss** — what a gateway pays at flush for one
  cache miss: ``tier.get(key)`` then ``tier.store({key: payload})``,
  repeated until the store holds 130 entries (the misses of one
  ``gateway-mixed`` round) or 1,000 (a long-lived gateway).  A miss
  appends to the index log instead of rewriting the index, so both
  rows should cost about the same.  Recorded: seconds per miss (median
  of the last 100), filesystem calls per miss, counted by wrapping
  ``os.stat``, ``os.mkdir``, ``os.replace``, ``os.scandir``,
  ``os.open``, ``open`` and ``fcntl.flock``, and files created per
  miss: opens that create a path that did not exist (the shard's
  tempfile on every miss, plus the snapshot's tempfile when the log is
  folded).  The counts are deterministic, so they compare across
  hosts; the seconds do not.  Recorded only.
"""

from __future__ import annotations

import builtins
import collections
import fcntl
import json
import hashlib
import os
import random
import statistics
import time

import pytest

from repro.server import store_gc
from repro.server.shards import (
    ShardedDiskTier,
    StoreLimits,
    canonical_payload_bytes,
    verify_entry,
)
from repro.utils.clock import wall_now

from _record import record_entry

pytestmark = pytest.mark.cache

OVERHEAD_LIMIT = 0.02
"""The per-read eviction steps (TTL check + LRU touch stamp) may cost
at most this fraction of a full shard read."""

MISS_STORE_SIZES = (130, 1_000)
TIMED_MISSES = 100
REAL_STAT = os.stat
FS_CALLS = (
    (os, "stat"),
    (os, "mkdir"),
    (os, "replace"),
    (os, "scandir"),
    (os, "open"),
    (builtins, "open"),
    (fcntl, "flock"),
)


def _key(tag: str) -> str:
    return hashlib.sha256(tag.encode()).hexdigest()


def _payload(tag: str) -> dict:
    return {"tag": tag, "depth": 3, "filler": "x" * 120}


def test_eviction_overhead_on_hot_reads(tmp_path, root_seed):
    """Acceptance: TTL check + LRU touch cost ≤ 2% of a shard read."""
    tier = ShardedDiskTier(
        tmp_path / "store", limits=StoreLimits(ttl_seconds=3600.0)
    )
    keys = [_key(f"hot-{i}") for i in range(64)]
    tier.store({key: _payload(f"hot-{i}") for i, key in enumerate(keys)})

    # Full reads: everything get() does, lifecycle steps included.
    reads = []
    for _ in range(4):
        began = time.perf_counter()
        for key in keys:
            assert tier.get(key) is not None
        reads.append((time.perf_counter() - began) / len(keys))
    read_seconds = statistics.median(reads)

    # The added eviction steps, in isolation, on the same data shapes.
    payload = _payload("hot-0")
    index = tier.load_index()
    meta = dict(index["entries"][keys[0]])
    meta["h"] = json.loads(
        tier.shard_path(keys[0]).read_text()
    )["meta"][keys[0]]["h"]
    limits = tier.limits
    touches = {}
    iterations = 50_000
    began = time.perf_counter()
    for _ in range(iterations):
        limits.expired(meta.get("c"), wall_now())
        touches[keys[0]] = wall_now()
    eviction_seconds = (time.perf_counter() - began) / iterations

    # The integrity check, recorded for visibility (no line: refusing
    # corrupt payloads is a deliberate cost, not eviction overhead).
    iterations = 20_000
    began = time.perf_counter()
    for _ in range(iterations):
        verify_entry(payload, meta)
    verify_seconds = (time.perf_counter() - began) / iterations

    overhead_fraction = eviction_seconds / read_seconds
    record_entry(
        "cache",
        "eviction_overhead_hot_reads",
        {
            "entries": len(keys),
            "read_seconds_per_get_median": read_seconds,
            "eviction_seconds_per_get": eviction_seconds,
            "overhead_fraction": overhead_fraction,
            "overhead_limit": OVERHEAD_LIMIT,
            "integrity_verify_seconds_per_get": verify_seconds,
            "integrity_verify_fraction": verify_seconds / read_seconds,
        },
    )
    assert overhead_fraction <= OVERHEAD_LIMIT, (
        f"eviction steps cost {overhead_fraction:.2%} of a shard read "
        f"(limit {OVERHEAD_LIMIT:.0%})"
    )


def test_full_gc_latency(tmp_path, root_seed):
    """A complete journaled pass over a populated store, timed."""
    tier = ShardedDiskTier(tmp_path / "store")
    total = 256
    tier.store(
        {_key(f"gc-{i}"): _payload(f"gc-{i}") for i in range(total)}
    )
    tier.limits = StoreLimits(max_entries=total // 2)

    began = time.perf_counter()
    report = store_gc.run_gc(tier)
    gc_wall = time.perf_counter() - began

    assert report.ran
    assert len(report.evicted_keys) == total // 2
    assert tier.entry_count() == total // 2

    record_entry(
        "cache",
        "full_gc_latency",
        {
            "entries_before": total,
            "entries_after": tier.entry_count(),
            "evicted": len(report.evicted_keys),
            "passes": report.passes,
            "gc_wall_seconds": gc_wall,
            "gc_seconds_per_evicted_entry": gc_wall
            / max(1, len(report.evicted_keys)),
        },
    )


def _result_payload(n: int) -> dict:
    """A cached solve result shaped like ``result_to_dict`` output.

    Its canonical size is about 830 bytes, the median over the 130
    results one ``gateway-mixed`` round writes (946 bytes as JSON with
    ``json.dumps``'s default separators).
    """
    rng = random.Random(n)
    rectangles = [
        {
            "rows": sorted(rng.sample(range(10), 3)),
            "cols": sorted(rng.sample(range(10), 3)),
        }
        for _ in range(8)
    ]
    outcome = {"error": None, "skipped": False, "proved_optimal": False}
    depths = (("trivial", 10), ("packing:32", 11), ("sap", 10))
    return {
        "version": 1,
        "type": "portfolio_result",
        "partition": {
            "version": 1,
            "type": "partition",
            "shape": [10, 10],
            "rectangles": rectangles,
        },
        "winner": "sap",
        "optimal": True,
        "lower_bound": 10,
        "certifier": "sap",
        "seed": n,
        "wall_seconds": rng.random(),
        "outcomes": [
            dict(outcome, name=name, depth=depth, seconds=rng.random())
            for name, depth in depths
        ],
    }


def _misses(tier: ShardedDiskTier, count: int) -> list:
    """Seconds of each of ``count`` misses written to ``tier``."""
    seconds = []
    for n in range(count):
        key, payload = _key(f"miss-{n}"), _result_payload(n)
        began = time.perf_counter()
        assert tier.get(key) is None
        tier.store({key: payload})
        seconds.append(time.perf_counter() - began)
    return seconds


def _creates(module, args: tuple, kwargs: dict, stat) -> bool:
    """Is this ``os.open``/``open`` call creating a path that did not
    exist?  ``stat`` is the unwrapped ``os.stat``."""
    if module is os:
        creating = bool(args[1] & os.O_CREAT)
    else:
        mode = args[1] if len(args) > 1 else kwargs.get("mode", "r")
        creating = isinstance(args[0], (str, os.PathLike)) and any(
            c in mode for c in "wax"
        )
    if not creating:
        return False
    try:
        stat(args[0])
    except FileNotFoundError:
        return True
    return False


def test_store_write_per_miss(tmp_path, monkeypatch):
    """Get + store of one miss: seconds, filesystem calls and files
    created."""
    rows = {}
    for size in MISS_STORE_SIZES:
        timed = ShardedDiskTier(tmp_path / f"timed-{size}")
        seconds = _misses(timed, size)
        assert timed.entry_count() == size

        counted = ShardedDiskTier(tmp_path / f"counted-{size}")
        calls: collections.Counter = collections.Counter()
        created = 0
        for module, name in FS_CALLS:
            real = getattr(module, name)

            def spy(*args, _real=real, _name=name, _module=module, **kwargs):
                nonlocal created
                calls[_name] += 1
                if _name == "open" and _creates(
                    _module, args, kwargs, REAL_STAT
                ):
                    created += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, spy)
        _misses(counted, size)
        monkeypatch.undo()
        assert counted.entry_count() == size

        rows[str(size)] = {
            "seconds_per_miss_median": statistics.median(
                seconds[-TIMED_MISSES:]
            ),
            "timed_misses": TIMED_MISSES,
            "fs_calls_per_miss": sum(calls.values()) / size,
            "fs_calls_per_miss_by_kind": {
                name: count / size for name, count in sorted(calls.items())
            },
            "files_created_per_miss": created / size,
        }
    sizes = [
        len(canonical_payload_bytes(_result_payload(n)))
        for n in range(MISS_STORE_SIZES[0])
    ]
    record_entry(
        "cache",
        "store_write_per_miss",
        {
            "payload_bytes_median": statistics.median(sizes),
            "by_store_entries": rows,
        },
    )
