"""REP004 — spawn-safe hand-off of callables to worker processes.

A worker that is not a plain fork of its caller — the ``forkserver``
workers of :class:`repro.service.pool.WorkerPool` (which must not
inherit a server's connection fds), or any ``spawn`` context — gets its
callable pickled, by qualified name.  Lambdas and nested functions have
no importable name, so code that works under fork fails the moment the
start method changes — exactly the class of bug that only fires on the
platform you did not test.  In modules that use process pools or
:mod:`multiprocessing`, the rule flags unpicklable callables passed to
executor-shaped call sites (``.submit()``, ``.apply_async()``) and as
``target=`` to ``Process(...)``.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set, Tuple

from repro.analysis.engine import FileContext, FileRule
from repro.analysis.findings import Finding

_SUBMIT_METHODS = {"submit", "apply_async"}


def _uses_process_pools(tree: ast.AST) -> bool:
    """Does this module touch ProcessPoolExecutor / multiprocessing?"""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "ProcessPoolExecutor":
            return True
        if isinstance(node, ast.Attribute) and node.attr in (
            "ProcessPoolExecutor",
            "Pool",
        ):
            return True
        if isinstance(node, ast.Import):
            if any(
                alias.name.split(".")[0] == "multiprocessing"
                for alias in node.names
            ):
                return True
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.split(".")[0] == "multiprocessing":
                return True
            if module.startswith("concurrent") and any(
                alias.name == "ProcessPoolExecutor"
                for alias in node.names
            ):
                return True
    return False


def _handed_off_callable(node: ast.Call) -> Optional[Tuple[ast.AST, str]]:
    """The callable a call hands to a worker process, and the call site.

    ``pool.submit(fn, ...)`` / ``pool.apply_async(fn, ...)`` pass it
    first; ``Process(target=fn)`` and ``ctx.Process(target=fn)`` by
    keyword.
    """
    func = node.func
    if isinstance(func, ast.Attribute):
        if func.attr in _SUBMIT_METHODS and node.args:
            return node.args[0], f".{func.attr}()"
        name = func.attr
    else:
        name = getattr(func, "id", None)
    if name == "Process":
        for keyword in node.keywords:
            if keyword.arg == "target":
                return keyword.value, "Process(target=...)"
    return None


def _nested_function_names(tree: ast.AST) -> Set[str]:
    """Names of functions defined *inside* another function."""
    nested: Set[str] = set()

    def walk(node: ast.AST, inside_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                if inside_function:
                    nested.add(child.name)
                walk(child, True)
            elif isinstance(child, ast.Lambda):
                walk(child, True)
            else:
                walk(child, inside_function)

    walk(tree, False)
    return nested


class SpawnSafeSubmitRule(FileRule):
    """REP004: only picklable callables go to worker processes."""

    rule_id = "REP004"
    title = "no lambdas/closures handed to worker processes"
    hint = (
        "hoist the callable to module level (spawn and forkserver pickle "
        "it by qualified name) and pass state through its arguments"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not _uses_process_pools(ctx.tree):
            return
        nested = _nested_function_names(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            handed_off = _handed_off_callable(node)
            if handed_off is None:
                continue
            target, site = handed_off
            reason = self._unpicklable_reason(target, nested)
            if reason is not None:
                yield self.finding(
                    ctx,
                    node,
                    f"{reason} passed to {site} — not picklable under "
                    f"a spawn or forkserver context",
                )

    @staticmethod
    def _unpicklable_reason(
        target: ast.AST, nested: Set[str]
    ) -> Optional[str]:
        if isinstance(target, ast.Lambda):
            return "lambda"
        if isinstance(target, ast.Name) and target.id in nested:
            return f"nested function {target.id!r}"
        if (
            isinstance(target, ast.Call)
            and isinstance(target.func, (ast.Name, ast.Attribute))
            and (
                getattr(target.func, "id", None) == "partial"
                or getattr(target.func, "attr", None) == "partial"
            )
            and target.args
        ):
            inner = SpawnSafeSubmitRule._unpicklable_reason(
                target.args[0], nested
            )
            if inner is not None:
                return f"functools.partial over a {inner}"
        return None
