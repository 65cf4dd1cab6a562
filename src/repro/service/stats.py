"""Per-solver win accounting shared by the server front and the scoreboard.

The gateway's ``metrics`` op reports which portfolio member
wins how often (:meth:`repro.server.engine.AsyncSolveEngine.stats`);
the corpus scoreboard reports the same thing for an offline corpus run.
Both feed one counter class so the two surfaces can never drift apart
in shape or semantics: a *win* is one non-cached solve whose resolved
``winner`` is the member in question (cache hits replay an old verdict
and are deliberately not re-counted).
"""

from __future__ import annotations

from typing import Any, Dict, Optional


class WinTally:
    """Counts solves and per-member wins; reports rates.

    The mutation surface is tiny on purpose — :meth:`record` for a raw
    winner name, :meth:`record_result` for a
    :class:`repro.service.portfolio.PortfolioResult` (skipping cache
    hits), :meth:`merge` to fold one tally into another (e.g. a
    scoreboard run into a server's lifetime counters).
    """

    def __init__(self) -> None:
        self.solved = 0
        self._wins: Dict[str, int] = {}

    def record(self, winner: str) -> None:
        """Count one fresh solve won by ``winner``."""
        self.solved += 1
        self._wins[winner] = self._wins.get(winner, 0) + 1

    def record_result(self, result: Any) -> None:
        """Count a portfolio result, ignoring cache replays."""
        if getattr(result, "from_cache", False):
            return
        self.record(result.winner)

    def merge(self, other: "WinTally") -> None:
        self.solved += other.solved
        for name, count in other._wins.items():
            self._wins[name] = self._wins.get(name, 0) + count

    # ------------------------------------------------------------------
    def wins(self) -> Dict[str, int]:
        """Per-member win counts, name-sorted (stable report order)."""
        return dict(sorted(self._wins.items()))

    def win_rates(self) -> Dict[str, float]:
        """Wins as a fraction of fresh solves (empty before any solve)."""
        if not self.solved:
            return {}
        return {
            name: count / self.solved
            for name, count in sorted(self._wins.items())
        }

    def win_rate(self, name: str) -> Optional[float]:
        if not self.solved:
            return None
        return self._wins.get(name, 0) / self.solved

    def as_dict(self) -> Dict[str, Any]:
        """The wire shape both the ``metrics`` ops and the scoreboard emit."""
        return {
            "solved": self.solved,
            "wins": self.wins(),
            "win_rates": self.win_rates(),
        }

    def __repr__(self) -> str:
        return f"WinTally(solved={self.solved}, wins={self.wins()})"
