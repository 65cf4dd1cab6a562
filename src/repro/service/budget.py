"""Shared wall-clock accounting for portfolio members and tenants.

A :class:`PortfolioBudget` is one pot of wall-clock seconds that every
member of a portfolio race draws from.  Members are cooperative (the
solvers poll :class:`repro.utils.timing.Deadline` at convenient points),
so the budget hands each member the smaller of its per-member slice and
whatever remains of the total, and keeps a ledger of who spent what —
the ledger feeds the provenance records of
:mod:`repro.service.portfolio`.

One level up, where a ``PortfolioBudget`` meters one race, a
:class:`QuotaWindow` meters one *tenant* of the solve service across
many races — a rolling window of compute seconds that refills on a
fixed cadence.  It is the accounting substrate of
:mod:`repro.server.tenancy`.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional, Union

from repro.core.exceptions import SolverError
from repro.utils.timing import Deadline

BudgetLike = Union[None, int, float, "PortfolioBudget"]


class PortfolioBudget:
    """A pot of wall-clock seconds shared across portfolio members.

    ``total_seconds=None`` means unlimited; ``per_member_seconds`` caps
    any single member regardless of what remains in the pot.  The clock
    starts at construction, so build the budget immediately before the
    race it governs.
    """

    def __init__(
        self,
        total_seconds: Optional[float] = None,
        *,
        per_member_seconds: Optional[float] = None,
    ) -> None:
        for label, value in (
            ("total_seconds", total_seconds),
            ("per_member_seconds", per_member_seconds),
        ):
            if value is not None and value < 0:
                raise SolverError(f"{label} must be >= 0, got {value}")
        self.total_seconds = total_seconds
        self.per_member_seconds = per_member_seconds
        self.ledger: Dict[str, float] = {}
        self._deadline = Deadline(total_seconds)

    @classmethod
    def coerce(cls, value: BudgetLike) -> "PortfolioBudget":
        """Accept ``None`` (unlimited), bare seconds, or a ready budget."""
        if value is None:
            return cls()
        if isinstance(value, PortfolioBudget):
            return value
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return cls(total_seconds=float(value))
        raise SolverError(
            f"cannot interpret {value!r} as a portfolio budget"
        )

    # ------------------------------------------------------------------
    def member_budget(self) -> Optional[float]:
        """Seconds the next member may spend (``None`` = unlimited)."""
        remaining = self._deadline.remaining()
        if remaining is None:
            return self.per_member_seconds
        if self.per_member_seconds is None:
            return remaining
        return min(remaining, self.per_member_seconds)

    def charge(self, member: str, seconds: float) -> None:
        """Record ``seconds`` spent by ``member`` in the ledger."""
        self.ledger[member] = self.ledger.get(member, 0.0) + seconds

    def spent(self) -> float:
        """Total seconds charged so far."""
        return sum(self.ledger.values())

    def remaining(self) -> Optional[float]:
        return self._deadline.remaining()

    def expired(self) -> bool:
        return self._deadline.expired()

    def __repr__(self) -> str:
        total = "inf" if self.total_seconds is None else f"{self.total_seconds:g}s"
        return (
            f"PortfolioBudget(total={total}, spent={self.spent():.3f}s, "
            f"members={len(self.ledger)})"
        )


class QuotaWindow:
    """A rolling compute quota: N seconds of solving per window.

    Charges add up in the window's spend until the window's span of
    wall-clock time elapses; then the spend resets and the tenant
    starts from zero again.  ``quota_seconds=None`` means unlimited
    (the spend still adds up, for metrics).

    The ``clock`` is injectable so tests can roll windows without
    sleeping.  A lifetime total survives window rolls; per-window spend
    does not.
    """

    def __init__(
        self,
        quota_seconds: Optional[float] = None,
        *,
        window_seconds: float = 60.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if quota_seconds is not None and quota_seconds < 0:
            raise SolverError(
                f"quota_seconds must be >= 0, got {quota_seconds}"
            )
        if window_seconds <= 0:
            raise SolverError(
                f"window_seconds must be > 0, got {window_seconds}"
            )
        self.quota_seconds = quota_seconds
        self.window_seconds = window_seconds
        self._clock = clock
        self._window_began = clock()
        self._window_spent = 0.0
        self.lifetime_seconds = 0.0
        self.lifetime_charges = 0

    def _roll(self) -> None:
        now = self._clock()
        if now - self._window_began >= self.window_seconds:
            self._window_began = now
            self._window_spent = 0.0

    def charge(self, seconds: float) -> None:
        """Record ``seconds`` of compute against the current window."""
        self._roll()
        self._window_spent += seconds
        self.lifetime_seconds += seconds
        self.lifetime_charges += 1

    def spent(self) -> float:
        """Seconds charged inside the current window."""
        self._roll()
        return self._window_spent

    def remaining(self) -> Optional[float]:
        """Seconds left in the window (``None`` = unlimited)."""
        if self.quota_seconds is None:
            return None
        return max(0.0, self.quota_seconds - self.spent())

    def exhausted(self) -> bool:
        remaining = self.remaining()
        return remaining is not None and remaining <= 0.0

    def retry_after(self) -> float:
        """Seconds until the window rolls and the quota refills."""
        self._roll()
        return max(
            0.0,
            self._window_began + self.window_seconds - self._clock(),
        )

    def as_dict(self) -> Dict[str, Optional[float]]:
        return {
            "quota_seconds": self.quota_seconds,
            "window_seconds": self.window_seconds,
            "window_spent": self.spent(),
            "window_remaining": self.remaining(),
            "lifetime_seconds": self.lifetime_seconds,
        }

    def __repr__(self) -> str:
        quota = (
            "inf" if self.quota_seconds is None else f"{self.quota_seconds:g}s"
        )
        return (
            f"QuotaWindow(quota={quota}/{self.window_seconds:g}s, "
            f"spent={self.spent():.3f}s)"
        )
