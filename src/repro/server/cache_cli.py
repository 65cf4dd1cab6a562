"""``python -m repro cache`` — stats / gc / prewarm for sharded stores.

The cache subcommand is the operational front door for the bounded
store (``repro.server.shards`` + ``repro.server.store_gc``):

    python -m repro cache stats DIR [--json]
    python -m repro cache gc DIR [--max-bytes N] [--max-entries N]
                                 [--ttl-seconds S] [--json]
    python -m repro cache prewarm DIR [--profile P] [--families F,G]
                                      [--members M] [--workers N]

``stats`` prints the index-backed inventory (entries, bytes, limits,
pending GC journal) and exits 0 whenever the store is openable — the
chaos suite uses it as the "store still servable" probe after killing
GC at every journal state.  ``gc`` runs a full journaled GC/compaction
pass, persisting any cap flags it was given so later openers enforce
the same policy.  ``prewarm`` bulk-solves a corpus profile through
``solve_batch`` into the store, so a fresh deployment starts with a
warm cache instead of a thundering herd of cold solves.
"""

from __future__ import annotations

import argparse
import json

from repro.cli import comma_list
from repro.service.portfolio import DEFAULT_PORTFOLIO


def _limits(args: argparse.Namespace):
    from repro.server.shards import StoreLimits

    if (
        args.max_bytes is None
        and args.max_entries is None
        and getattr(args, "ttl_seconds", None) is None
    ):
        return None
    return StoreLimits(
        max_bytes=args.max_bytes,
        max_entries=args.max_entries,
        ttl_seconds=args.ttl_seconds,
    )


def _open_tier(args: argparse.Namespace, limits=None):
    from repro.server.shards import ShardedDiskTier

    return ShardedDiskTier(args.store, limits=limits)


def cmd_cache_stats(args: argparse.Namespace) -> int:
    tier = _open_tier(args)
    index = tier.load_index(verify=True)
    shards = sorted(tier.root.glob("shard-*.json"))
    corrupt = sorted(tier.root.glob("*.corrupt-*"))
    payload = {
        "store": str(tier.root),
        "entries": tier.entry_count(),
        "bytes_used": tier.bytes_used(),
        "shards": len(shards),
        "quarantined_files": len(corrupt),
        "gc_journal_pending": tier.journal_path().exists(),
        "limits": tier.limits.as_dict(),
        "legacy_entries": sum(
            1
            for meta in index.get("entries", {}).values()
            if meta.get("v") is None
        ),
    }
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    from repro.utils.tables import format_table

    limits = tier.limits
    rows = [
        ["entries", payload["entries"],
         "-" if limits.max_entries is None else limits.max_entries],
        ["bytes", payload["bytes_used"],
         "-" if limits.max_bytes is None else limits.max_bytes],
        ["shard files", payload["shards"], "-"],
        ["legacy (unstamped) entries", payload["legacy_entries"], "-"],
        ["quarantined files", payload["quarantined_files"], "-"],
        ["ttl (seconds)", "-",
         "-" if limits.ttl_seconds is None else limits.ttl_seconds],
    ]
    print(
        format_table(
            ["", "current", "limit"],
            rows,
            title=f"cache store {tier.root}",
        )
    )
    if payload["gc_journal_pending"]:
        print(
            "note: a GC journal is pending (an interrupted pass will "
            "resume on the next open or `repro cache gc`)"
        )
    return 0


def cmd_cache_gc(args: argparse.Namespace) -> int:
    from repro.server.store_gc import run_gc

    tier = _open_tier(args, limits=_limits(args))
    report = run_gc(tier, block=True)
    payload = report.as_dict()
    payload["store"] = str(tier.root)
    payload["limits"] = tier.limits.as_dict()
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(
            f"gc {tier.root}: {payload['evicted']} evicted "
            f"({payload['expired']} past TTL), "
            f"{payload['removed_tmp']} orphan tmp, "
            f"{payload['removed_corrupt']} aged quarantine, "
            f"{payload['removed_empty_shards']} empty shard(s) removed"
            + (" [resumed an interrupted pass]" if report.resumed else "")
        )
        print(
            f"now: {payload['entries_after']} entries, "
            f"{payload['bytes_after']} bytes "
            f"(limits: {tier.limits.as_dict()})"
        )
    over = tier.limits.over_caps(tier.bytes_used(), tier.entry_count())
    return 1 if over else 0


def cmd_cache_prewarm(args: argparse.Namespace) -> int:
    from repro.corpus.registry import build_corpus
    from repro.service.batch import solve_batch
    from repro.service.cache import ResultCache

    instances = build_corpus(
        args.families or None, profile=args.profile, seed=args.seed
    )
    cache = ResultCache.sharded(
        args.store,
        max_bytes=args.max_bytes,
        max_entries=args.max_entries,
        ttl_seconds=args.ttl_seconds,
    )
    try:
        records = solve_batch(
            instances,
            members=args.members,
            seed=args.seed,
            workers=args.workers,
            cache=cache,
            budget_per_instance=args.budget,
        )
    finally:
        cache.flush()
    stats = cache.refresh_stats()
    hits = sum(1 for record in records if record.from_cache)
    print(
        f"prewarmed {len(records)} instances into {args.store} "
        f"(profile {args.profile}, members: {', '.join(args.members)}): "
        f"{hits} already cached, {len(records) - hits} solved fresh"
    )
    print(
        f"store now ~{stats.bytes_used} bytes"
        + (
            f", {stats.store_evictions} evicted by caps"
            if stats.store_evictions
            else ""
        )
    )
    return 0


def add_cache_parser(sub) -> None:
    """Attach the ``cache`` command tree to the top-level parser."""
    parser = sub.add_parser(
        "cache",
        help="inspect, collect, and prewarm sharded result-cache stores",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    tree = parser.add_subparsers(dest="cache_command", required=True)

    def store_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "store", help="sharded cache directory (as given to --cache-dir)"
        )

    def limit_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--max-bytes", type=int, default=None,
            help="byte cap for the store (persisted in store-config.json)",
        )
        p.add_argument(
            "--max-entries", type=int, default=None,
            help="entry-count cap for the store (persisted)",
        )
        p.add_argument(
            "--ttl-seconds", type=float, default=None,
            help="age past which entries expire (persisted)",
        )

    p_stats = tree.add_parser(
        "stats", help="index-backed inventory of a store (exit 0 = servable)"
    )
    store_arg(p_stats)
    p_stats.add_argument("--json", action="store_true")
    p_stats.set_defaults(func=cmd_cache_stats)

    p_gc = tree.add_parser(
        "gc",
        help="run a journaled GC/compaction pass (exit 1 if still over cap)",
    )
    store_arg(p_gc)
    limit_flags(p_gc)
    p_gc.add_argument("--json", action="store_true")
    p_gc.set_defaults(func=cmd_cache_gc)

    p_warm = tree.add_parser(
        "prewarm",
        help="bulk-solve a corpus profile into the store before deployment",
    )
    store_arg(p_warm)
    limit_flags(p_warm)
    p_warm.add_argument(
        "--profile", default="smoke",
        help="corpus size profile to solve (default smoke)",
    )
    p_warm.add_argument(
        "--families", type=comma_list, default=None,
        help="comma-separated family subset (default: all registered)",
    )
    p_warm.add_argument(
        "--members", type=comma_list, default=DEFAULT_PORTFOLIO,
        help="comma-separated portfolio members",
    )
    p_warm.add_argument("--workers", type=int, default=1)
    p_warm.add_argument("--seed", type=int, default=2024)
    p_warm.add_argument(
        "--budget", type=float, default=None,
        help="wall-clock budget per instance (seconds)",
    )
    p_warm.set_defaults(func=cmd_cache_prewarm)


__all__ = ["add_cache_parser"]
