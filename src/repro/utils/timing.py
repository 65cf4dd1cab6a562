"""Wall-clock timing helpers used by SAP and the experiment harnesses."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional


@dataclass
class Stopwatch:
    """Accumulates named wall-clock phases.

    Used by SAP to attribute runtime to the packing heuristic versus the
    exact (SMT-style) solving phase, mirroring Figure 4 of the paper.
    """

    totals: Dict[str, float] = field(default_factory=dict)
    _started: Dict[str, float] = field(default_factory=dict, repr=False)

    def start(self, phase: str) -> None:
        if phase in self._started:
            raise RuntimeError(f"phase {phase!r} already running")
        self._started[phase] = time.perf_counter()

    def stop(self, phase: str) -> float:
        try:
            began = self._started.pop(phase)
        except KeyError:
            raise RuntimeError(f"phase {phase!r} was never started") from None
        elapsed = time.perf_counter() - began
        self.totals[phase] = self.totals.get(phase, 0.0) + elapsed
        return elapsed

    def time(self, phase: str) -> "_PhaseContext":
        """Context manager form: ``with watch.time("smt"): ...``."""
        return _PhaseContext(self, phase)

    def total(self, phase: Optional[str] = None) -> float:
        """Accumulated seconds for ``phase``, or for all phases if None."""
        if phase is None:
            return sum(self.totals.values())
        return self.totals.get(phase, 0.0)


class _PhaseContext:
    def __init__(self, watch: Stopwatch, phase: str) -> None:
        self._watch = watch
        self._phase = phase

    def __enter__(self) -> "_PhaseContext":
        self._watch.start(self._phase)
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._watch.stop(self._phase)


class Deadline:
    """A soft wall-clock budget, optionally tied to a cancellation flag.

    ``None`` seconds means "no limit".  Solvers poll :meth:`expired` at
    convenient points; this is cooperative, not preemptive.  ``cancel``
    is any object with an ``is_set() -> bool`` method (e.g. a
    ``threading.Event`` or :class:`repro.service.racing.RaceToken`); once
    it reads true the deadline counts as expired with zero time left,
    which lets a portfolio race or a streaming server abort a solver
    mid-flight through the same polling points the time budget uses.
    """

    def __init__(
        self, seconds: Optional[float], *, cancel: Optional[object] = None
    ) -> None:
        if seconds is not None and seconds < 0:
            raise ValueError(f"budget must be non-negative, got {seconds}")
        self._end = None if seconds is None else time.perf_counter() + seconds
        self._cancel = cancel

    def cancelled(self) -> bool:
        return self._cancel is not None and self._cancel.is_set()

    def expired(self) -> bool:
        if self.cancelled():
            return True
        return self._end is not None and time.perf_counter() > self._end

    def remaining(self) -> Optional[float]:
        if self.cancelled():
            return 0.0
        if self._end is None:
            return None
        return max(0.0, self._end - time.perf_counter())
