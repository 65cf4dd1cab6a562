"""Edge cases for the shared portfolio budget.

Satellite coverage: zero/negative budgets, exhaustion mid-race, and the
ledger agreeing with the wall times the provenance records.
"""

import time

import pytest

from repro.core.exceptions import SolverError
from repro.core.paper_matrices import figure_1b
from repro.service.budget import PortfolioBudget
from repro.service.portfolio import solve_portfolio
from tests.conftest import SERVICE_SEED


class TestConstruction:
    def test_negative_total_rejected(self):
        with pytest.raises(SolverError):
            PortfolioBudget(-1.0)

    def test_negative_per_member_rejected(self):
        with pytest.raises(SolverError):
            PortfolioBudget(10.0, per_member_seconds=-0.5)

    def test_coerce_accepts_none_numbers_and_budgets(self):
        assert PortfolioBudget.coerce(None).total_seconds is None
        assert PortfolioBudget.coerce(5).total_seconds == 5.0
        assert PortfolioBudget.coerce(2.5).total_seconds == 2.5
        ready = PortfolioBudget(7.0)
        assert PortfolioBudget.coerce(ready) is ready

    def test_coerce_rejects_bool_and_strings(self):
        with pytest.raises(SolverError):
            PortfolioBudget.coerce(True)
        with pytest.raises(SolverError):
            PortfolioBudget.coerce("10s")


class TestZeroBudget:
    def test_zero_budget_expires_immediately(self):
        pot = PortfolioBudget(0.0)
        time.sleep(0.002)  # perf_counter must tick past the deadline
        assert pot.expired()
        assert pot.member_budget() == 0.0
        assert pot.remaining() == 0.0

    def test_unlimited_budget_never_expires(self):
        pot = PortfolioBudget()
        assert not pot.expired()
        assert pot.remaining() is None
        assert pot.member_budget() is None

    def test_per_member_caps_unlimited_pot(self):
        pot = PortfolioBudget(per_member_seconds=3.0)
        assert pot.member_budget() == 3.0

    def test_member_budget_is_min_of_remaining_and_slice(self):
        pot = PortfolioBudget(100.0, per_member_seconds=5.0)
        assert pot.member_budget() == 5.0
        tight = PortfolioBudget(0.0, per_member_seconds=5.0)
        time.sleep(0.002)
        assert tight.member_budget() == 0.0


class TestExhaustionMidRace:
    def test_members_after_exhaustion_are_skipped(self):
        """Budget dies between members: the tail is skipped with an
        explicit reason, and the result still validates."""
        pot = PortfolioBudget(0.001)
        time.sleep(0.01)  # the pot expires before the race starts
        result = solve_portfolio(
            figure_1b(),
            members=("packing:4", "sap"),
            seed=SERVICE_SEED,
            budget=pot,
        )
        result.partition.validate(figure_1b())
        assert result.winner == "trivial"  # fallback
        for name in ("packing:4", "sap"):
            outcome = result.member(name)
            assert outcome.skipped
            assert outcome.error == "portfolio budget exhausted"

    def test_starved_exact_member_reports_budget_error(self):
        """A member that *starts* with a zero slice fails inside the
        solver (not skipped) and the race still completes."""
        result = solve_portfolio(
            figure_1b(),  # >64 search nodes, so the deadline poll fires
            members=("trivial", "branch_bound"),
            seed=SERVICE_SEED,
            budget=PortfolioBudget(per_member_seconds=0.0),
            stop_when_optimal=False,
        )
        result.partition.validate(figure_1b())
        bb = result.member("branch_bound")
        assert not bb.skipped
        assert bb.error is not None and "budget" in bb.error.lower()


class TestLedger:
    def test_ledger_matches_provenance_seconds(self):
        """Every charged second is attributable to a member outcome and
        vice versa — the ledger and the provenance never drift."""
        pot = PortfolioBudget(60.0)
        result = solve_portfolio(
            figure_1b(),
            members=("trivial", "packing:4", "sap"),
            seed=SERVICE_SEED,
            budget=pot,
            stop_when_optimal=False,
        )
        ran = [o for o in result.outcomes if not o.skipped]
        assert set(pot.ledger) == {o.name for o in ran}
        for outcome in ran:
            assert pot.ledger[outcome.name] == outcome.seconds
        assert pot.spent() == sum(o.seconds for o in ran)
        assert pot.spent() <= result.wall_seconds

    def test_ledger_accumulates_repeated_charges(self):
        pot = PortfolioBudget()
        pot.charge("sap", 1.0)
        pot.charge("sap", 0.5)
        assert pot.ledger == {"sap": 1.5}
        assert pot.spent() == 1.5

    def test_repr_mentions_totals(self):
        pot = PortfolioBudget(2.0)
        pot.charge("x", 0.25)
        text = repr(pot)
        assert "total=2" in text
        assert "members=1" in text
