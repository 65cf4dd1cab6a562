"""REP005/REP006/REP009 — artifact-serialization discipline.

REP005 guards the byte-identical-reproduction contract: every JSON
artifact with a checked-in baseline (``BENCH_*.json``, scoreboard
baselines, provenance dumps) must be written with ``sort_keys=True``,
or dict insertion order leaks into the bytes and every diff is noise.

REP006 guards the sharded cache's crash-safety story: shard files are
only read/written inside :mod:`repro.server.shards`'s helpers — an
``open()`` of a shard path anywhere else bypasses both the store lock
and the atomic-replace protocol that lets readers go without it.

REP009 extends the same discipline to every *other* file living inside
a cache store directory — the GC journal, the index snapshot and its
append-only log, the persisted store limits.  The crash-recovery matrix
in ``docs/cache-lifecycle.md`` only holds if each of those files is
written by exactly one locked helper (atomic replace, or for the log
one ``O_APPEND`` handle); a stray write from anywhere else can tear the
journal out from under a resume or desynchronize the index silently.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import FileContext, FileRule
from repro.analysis.findings import Finding

SORTED_JSON_SCOPE = (
    "src/repro/corpus/",
    "src/repro/experiments/",
    "src/repro/utils/",
    "src/repro/service/",
    "src/repro/server/",
    "benchmarks/",
)
"""Writer paths feeding baselined artifacts (BENCH_*.json, scoreboard
baselines, cache files, provenance dumps)."""


class SortedJsonRule(FileRule):
    """REP005: ``json.dump`` in artifact writers needs ``sort_keys=True``."""

    rule_id = "REP005"
    title = "json.dump without sort_keys in artifact writers"
    hint = (
        "pass sort_keys=True (or write through "
        "repro.utils.fileio.atomic_write_json / "
        "repro.experiments.common.write_json)"
    )

    def applies_to(self, relpath: str) -> bool:
        return relpath.startswith(SORTED_JSON_SCOPE)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and func.attr == "dump"
                and isinstance(func.value, ast.Name)
                and func.value.id == "json"
            ):
                continue
            sort_kw = next(
                (
                    kw
                    for kw in node.keywords
                    if kw.arg == "sort_keys"
                ),
                None,
            )
            if sort_kw is None:
                yield self.finding(
                    ctx,
                    node,
                    "json.dump without sort_keys — artifact bytes "
                    "depend on dict insertion order",
                )
            elif (
                isinstance(sort_kw.value, ast.Constant)
                and sort_kw.value.value is False
            ):
                yield self.finding(
                    ctx,
                    node,
                    "json.dump with sort_keys=False in an artifact "
                    "writer",
                )


SHARDS_MODULE = "src/repro/server/shards.py"
SHARD_IO_HELPERS = {"_read_shard", "_write_shard", "_migrate_single_file"}
"""The only functions allowed to open shard files.  Writers hold the
store lock (``shards.lock``, which guards the index too; for migration,
the global open lock as well); readers take none and rely on atomic
replace, re-reading under the lock to quarantine damage."""


class FlockShardIoRule(FileRule):
    """REP006: shard files are opened only by the flock helpers."""

    rule_id = "REP006"
    title = "cache shards opened outside server/shards.py lock helpers"
    hint = (
        "go through ShardedDiskTier (get/store) — raw opens bypass "
        "the store lock and atomic-replace protocol"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node, enclosing in _calls_with_enclosing_function(ctx.tree):
            func = node.func
            is_open = (
                isinstance(func, ast.Name) and func.id == "open"
            ) or (
                isinstance(func, ast.Attribute)
                and func.attr == "open"
                and isinstance(func.value, ast.Name)
                and func.value.id in ("os", "io", "Path")
            )
            if not is_open or not node.args:
                continue
            try:
                target_text = ast.unparse(node.args[0])
            except Exception:  # pragma: no cover - unparse is total on 3.9+
                continue
            if "shard" not in target_text.lower():
                continue
            if (
                ctx.relpath == SHARDS_MODULE
                and enclosing in SHARD_IO_HELPERS
            ):
                continue
            yield self.finding(
                ctx,
                node,
                f"shard file opened directly ({target_text!r}) outside "
                f"the flock helpers in server/shards.py",
            )


STORE_FILE_MARKERS = (
    "shard",
    "gc-journal",
    "gc_journal",
    "journal_path",
    "cache-index",
    "cache_index",
    "index_path",
    "index_log",
    "store-config",
    "store_config",
    "config_path",
)
"""Path-expression fragments identifying cache-store files.  Textual on
purpose (same heuristic as REP006): the store's filenames and path
helpers are all named after what they hold, so the unparsed argument
text is a reliable signal without data-flow analysis."""

STORE_WRITE_ALLOWLIST = {
    "src/repro/server/shards.py": {
        "_write_shard",
        "_write_index",
        "_log_handle",
        "_persist_limits",
        "_quarantine_entry",
    },
    "src/repro/server/store_gc.py": {"_write_journal"},
}
"""The only (module, function) pairs allowed to write store files.
Each helper holds the appropriate lock and writes atomically — or, for
the index log (``_log_handle``), opens the one ``O_APPEND`` handle
every append goes through; the crash-recovery matrix in
docs/cache-lifecycle.md is proved against exactly these write sites."""


class StoreArtifactWriteRule(FileRule):
    """REP009: cache-store files written only by the locked helpers."""

    rule_id = "REP009"
    title = "cache-store file written outside the locked atomic helpers"
    hint = (
        "go through ShardedDiskTier / store_gc — journal, index, index-log "
        "and store-config writes must stay inside the allowlisted helpers "
        "or crash recovery can no longer trust them"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        allowed = STORE_WRITE_ALLOWLIST.get(ctx.relpath, set())
        for node, enclosing in _calls_with_enclosing_function(ctx.tree):
            target_text = _store_write_target(node)
            if target_text is None:
                continue
            lowered = target_text.lower()
            if not any(m in lowered for m in STORE_FILE_MARKERS):
                continue
            if enclosing in allowed:
                continue
            yield self.finding(
                ctx,
                node,
                f"cache-store file written directly ({target_text!r}) "
                f"outside the locked atomic helpers",
            )


def _store_write_target(node: ast.Call):
    """The unparsed path argument of a store-file *write*, or None.

    Recognized write shapes: ``atomic_write_json(path, ...)``, an
    ``open(path, mode)`` with a writable mode, and
    ``<path>.write_text(...)`` / ``<path>.write_bytes(...)``.
    """
    func = node.func
    if (
        isinstance(func, ast.Name) and func.id == "atomic_write_json"
    ) or (
        isinstance(func, ast.Attribute)
        and func.attr == "atomic_write_json"
    ):
        if node.args:
            return _unparse(node.args[0])
        return None
    if isinstance(func, ast.Attribute) and func.attr in (
        "write_text",
        "write_bytes",
    ):
        return _unparse(func.value)
    is_open = (isinstance(func, ast.Name) and func.id == "open") or (
        isinstance(func, ast.Attribute)
        and func.attr == "open"
        and isinstance(func.value, ast.Name)
        and func.value.id in ("os", "io", "Path")
    )
    if is_open and node.args:
        mode = None
        if len(node.args) > 1 and isinstance(node.args[1], ast.Constant):
            mode = node.args[1].value
        for kw in node.keywords:
            if kw.arg == "mode" and isinstance(kw.value, ast.Constant):
                mode = kw.value.value
        if isinstance(mode, str) and any(c in mode for c in "wax+"):
            return _unparse(node.args[0])
    return None


def _unparse(node: ast.AST):
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on 3.9+
        return None


def _calls_with_enclosing_function(tree: ast.AST):
    """Yield ``(Call, enclosing_function_name_or_None)`` pairs."""
    results = []

    def walk(node: ast.AST, enclosing: object) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                walk(child, child.name)
            else:
                if isinstance(child, ast.Call):
                    results.append((child, enclosing))
                walk(child, enclosing)

    walk(tree, None)
    return results
