"""In-memory span tracing for the traced benchmark pass.

The program has no tracing of its own yet, so the benchmark wraps the
public entry points of each layer from the outside: :meth:`Tracer.patch`
replaces a function (or method) with a wrapper that records a span —
name, start, end, parent span and request id — and optionally folds
counters taken from the call's arguments or result.  A patched function
is replaced in every ``repro`` module that imported it by name, so
``from repro.core.bounds import rank_lower_bound`` call sites are
traced too.

Spans stay in memory (one tuple each) and are written out once, at the
end of the run.  Parent links follow :mod:`contextvars`, which asyncio
tasks copy at creation, so spans nest correctly inside the gateway's
event loop as well as in plain call stacks.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Span = Tuple[int, int, int, str, str, float, float]
"""``(pid, span id, parent id, name, request id, start, end)``; parent 0
is a root span.  Times come from :func:`time.perf_counter`, which is
``CLOCK_MONOTONIC`` on Linux and so comparable across processes."""

Before = Callable[[tuple, dict], Any]
After = Callable[["Tracer", Any, tuple, dict, Any], None]


class Tracer:
    """Collects spans and counters for one traced run."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: List[Span] = []
        self.counters: Counter = Counter()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=(0, "")
        )
        self._undo: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def _open(self, rid: Optional[str]) -> Tuple[int, int, str, Any]:
        parent, inherited = self._current.get()
        sid = next(self._ids)
        rid = inherited if rid is None else rid
        return sid, parent, rid, self._current.set((sid, rid))

    def _close(
        self, name: str, sid: int, parent: int, rid: str, start: float
    ) -> None:
        self.spans.append(
            (self.pid, sid, parent, name, rid, start, time.perf_counter())
        )

    def span(self, name: str, rid: Optional[str] = None) -> "_SpanContext":
        """``with tracer.span("client", rid="r17"): ...``"""
        return _SpanContext(self, name, rid)

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def wrap(
        self,
        fn: Callable,
        name: str,
        *,
        before: Optional[Before] = None,
        after: Optional[After] = None,
        rid_of: Optional[Callable[[tuple, dict], Optional[str]]] = None,
        span: bool = True,
    ) -> Callable:
        """A traced stand-in for ``fn`` (sync or ``async def``).

        ``before(args, kwargs)`` runs first and its value reaches
        ``after(tracer, state, args, kwargs, result)``, which runs once
        the call returns.  ``rid_of`` names the request a root-level call
        belongs to.  ``span=False`` keeps the counters but records no
        span, for functions called too often to time one by one.
        """
        tracer = self

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args: Any, **kwargs: Any) -> Any:
                state = before(args, kwargs) if before else None
                sid, parent, rid, token = tracer._open(
                    rid_of(args, kwargs) if rid_of else None
                )
                start = time.perf_counter()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    tracer._current.reset(token)
                    tracer._close(name, sid, parent, rid, start)
                if after:
                    after(tracer, state, args, kwargs, result)
                return result

            return traced_async

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            state = before(args, kwargs) if before else None
            if not span:
                result = fn(*args, **kwargs)
            else:
                sid, parent, rid, token = tracer._open(
                    rid_of(args, kwargs) if rid_of else None
                )
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._current.reset(token)
                    tracer._close(name, sid, parent, rid, start)
            if after:
                after(tracer, state, args, kwargs, result)
            return result

        return traced

    def patch(self, owner: Any, attr: str, name: str, **options: Any) -> None:
        """Trace ``owner.attr`` (a module function or a class method).

        Module functions are also replaced wherever another loaded
        ``repro`` module bound the same object by name.
        """
        original = owner.__dict__[attr]
        wrapper = self.wrap(original, name, **options)
        targets = [owner]
        if not isinstance(owner, type):
            targets.extend(
                module
                for module_name, module in sorted(sys.modules.items())
                if module_name.startswith("repro")
                and module is not owner
                and getattr(module, attr, None) is original
            )
        for target in targets:
            self._undo.append((target, attr, original))
            setattr(target, attr, wrapper)

    def carry_context(self, owner: type, attr: str) -> None:
        """Make ``owner.attr(fn, *args)``, an executor's ``submit``, run
        ``fn`` in a copy of the submitter's context, so that spans
        opened on a pool thread nest under the span that handed the
        work over and carry its request id.
        """
        original = owner.__dict__[attr]

        @functools.wraps(original)
        def submit(executor: Any, fn: Callable, /, *args: Any,
                   **kwargs: Any) -> Any:
            return original(
                executor, contextvars.copy_context().run, fn, *args, **kwargs
            )

        self._undo.append((owner, attr, original))
        setattr(owner, attr, submit)

    def restore(self) -> None:
        """Undo every :meth:`patch` and :meth:`carry_context`, newest
        first."""
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def dump(self, path: Path) -> None:
        """Write spans as JSON lines and counters as a final line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(list(span), sort_keys=True) + "\n")
            handle.write(
                json.dumps({"counters": dict(self.counters)}, sort_keys=True)
                + "\n"
            )


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str, rid: Optional[str]) -> None:
        self._tracer = tracer
        self._name = name
        self._rid = rid

    def __enter__(self) -> "_SpanContext":
        self._sid, self._parent, self._rid, self._token = self._tracer._open(
            self._rid
        )
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._tracer._current.reset(self._token)
        self._tracer._close(
            self._name, self._sid, self._parent, self._rid, self._start
        )


def load_dump(path: Path) -> Tuple[List[Span], Counter]:
    """Read back what :meth:`Tracer.dump` wrote."""
    spans: List[Span] = []
    counters: Counter = Counter()
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if isinstance(record, dict):
                counters.update(record["counters"])
            else:
                spans.append(tuple(record))
    return spans, counters


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def layer_times(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, busy time and self time.

    A span's self time is its duration minus the part of its interval
    that its child spans cover (children are clipped to the parent, and
    overlapping children — concurrent work — count once).
    """
    children: Dict[Tuple[int, int], List[Tuple[float, float]]] = defaultdict(
        list
    )
    for pid, _, parent, _, _, start, end in spans:
        if parent:
            children[(pid, parent)].append((start, end))
    table: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    )
    for pid, sid, _, name, _, start, end in spans:
        covered = union_length(
            (max(start, child_start), min(end, child_end))
            for child_start, child_end in children.get((pid, sid), ())
            if child_end > start and child_start < end
        )
        entry = table[name]
        entry["calls"] += 1
        entry["busy_s"] += end - start
        entry["self_s"] += (end - start) - covered
    return dict(table)


def unattributed_frac(
    spans: Sequence[Span], windows: Sequence[Tuple[float, float]]
) -> float:
    """Share of the ``windows`` (disjoint stretches of time) that no
    span covers."""
    covered = 0.0
    for start, end in windows:
        covered += union_length(
            (max(start, s), min(end, e))
            for _, _, _, _, _, s, e in spans
            if e > start and s < end
        )
    total = sum(end - start for start, end in windows)
    return max(0.0, 1.0 - covered / total)
