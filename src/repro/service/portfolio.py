"""Portfolio solving: heuristics, then exact backends, per instance.

The paper solves each EBMF instance with one solver at a time; a
production service wants the standard portfolio recipe instead (cf.
Rosenbaum 2013; Goubault de Brugiere & Martiel 2023): run the cheap
heuristics first, then the exact backends one after another (the
running best is ``branch_bound``'s upper hint), stop as soon as
optimality is certified, and record *who* won and *how long* everyone
took.  :func:`solve_portfolio` is that recipe for one matrix;
:mod:`repro.service.batch` fans it over many.

Member specs
------------

* any heuristic spec the registry knows (``trivial``, ``packing:K``,
  ``packing_x:K``, ``packing_noupdate:K``, ``packing_sorted:K``,
  ``greedy:K``);
* ``sap`` / ``sap:K`` — the paper's Algorithm 1 (SMT descent, ``K``
  packing trials, default 32), proves optimality;
* ``sap_paper`` / ``sap_paper:K`` — the same with the paper's formula
  (``use_fooling_bound=False``: the Eq. 3 bound alone, 1-cells in
  row-major order).  Figure 4 runs it to reproduce Observation 5;
* ``branch_bound`` — the SMT-independent exact search, proves
  optimality (small matrices only; budget-limited).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.binary_matrix import BinaryMatrix
from repro.core.bounds import rank_lower_bound
from repro.core.exceptions import (
    BudgetExceeded,
    InvalidPartitionError,
    SolverError,
)
from repro.core.partition import Partition
from repro.io import partition_from_dict, partition_to_dict
from repro.sat.solver import SolveStatus
from repro.service.budget import BudgetLike, PortfolioBudget
from repro.solvers.branch_bound import binary_rank_branch_bound
from repro.solvers.registry import make_heuristic
from repro.solvers.sap import SapOptions, sap_solve
from repro.solvers.trivial import trivial_partition
from repro.utils.rng import spawn_seeds

EXACT_MEMBERS = ("sap", "sap_paper", "branch_bound")
"""Member kinds that can certify optimality on their own."""

DEFAULT_PORTFOLIO = ("trivial", "packing:32", "sap")
"""Heuristics first (cheap upper bounds), then the exact closer."""

CERTIFIED_BY_RANK = "rank-bound"
"""Certifier label when the Eq. 3 lower bound alone proves optimality."""

RESULT_FORMAT_VERSION = 1

MemberCallback = Callable[["MemberOutcome"], None]
"""Hook invoked once per member outcome as it lands (streaming events)."""


def is_exact_member(name: str) -> bool:
    """True for members that can prove optimality themselves."""
    return name.partition(":")[0] in EXACT_MEMBERS


def validate_members(members: Sequence[str]) -> None:
    """Reject malformed member specs before any solving starts.

    A typo'd spec is a configuration error, not a solver failure — it
    must fail the whole call rather than be absorbed into a per-member
    ``error`` record and papered over by the trivial fallback.
    """
    if not members:
        raise SolverError("portfolio needs at least one member")
    for name in members:
        if not is_exact_member(name):
            make_heuristic(name)
        elif name.startswith("branch_bound:"):
            raise SolverError(
                f"member spec {name!r}: branch_bound takes no trial count"
            )
        else:
            _parse_trials(name, 32)


def member_seed(root_seed: Optional[int], name: str) -> Optional[int]:
    """Deterministic per-member seed, independent of execution order."""
    if root_seed is None:
        return None
    return spawn_seeds(root_seed, 1, salt=f"portfolio/{name}")[0]


@dataclass(frozen=True)
class MemberOutcome:
    """What one portfolio member did on one instance.

    ``partition`` is kept in memory for cross-validation but dropped by
    serialization (the depth survives in ``depth``).
    """

    name: str
    depth: Optional[int]
    seconds: float
    proved_optimal: bool = False
    error: Optional[str] = None
    skipped: bool = False
    partition: Optional[Partition] = field(
        default=None, compare=False, repr=False
    )
    detail: Optional[Dict[str, Any]] = field(default=None, compare=False)
    """Backend-specific extras (SAP phase split / final query status,
    branch-and-bound node count).  Carries wall-clock material, so it is
    serialized only alongside the timing fields."""

    @property
    def stopped_early(self) -> bool:
        """An exact member that ran and ended unproven with no error.

        SAP returns its best partition this way when its deadline or a
        cancel flag stops it.
        """
        return (
            is_exact_member(self.name)
            and not self.skipped
            and not self.proved_optimal
            and self.error is None
        )

    def as_dict(self, *, include_timing: bool = True) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "name": self.name,
            "depth": self.depth,
            "proved_optimal": self.proved_optimal,
            "error": self.error,
            "skipped": self.skipped,
        }
        if include_timing:
            payload["seconds"] = self.seconds
            if self.detail is not None:
                payload["detail"] = self.detail
        return payload


@dataclass
class PortfolioResult:
    """Best partition found plus full provenance of the solve."""

    partition: Partition
    winner: str
    optimal: bool
    lower_bound: int
    certifier: Optional[str]
    seed: Optional[int]
    wall_seconds: float
    outcomes: Tuple[MemberOutcome, ...]
    from_cache: bool = False

    @property
    def depth(self) -> int:
        return self.partition.depth

    def member(self, name: str) -> MemberOutcome:
        for outcome in self.outcomes:
            if outcome.name == name:
                return outcome
        raise KeyError(f"no portfolio member named {name!r}")

    def member_depths(self) -> Dict[str, int]:
        """Depths of every member that produced a partition."""
        return {
            outcome.name: outcome.depth
            for outcome in self.outcomes
            if outcome.depth is not None
        }

    def provenance(self, *, include_timing: bool = True) -> Dict[str, Any]:
        """JSON-able provenance record.

        ``include_timing=False`` drops every wall-clock field, leaving a
        record that is byte-identical across runs and pool sizes — the
        determinism-regression contract of :func:`solve_batch`.
        """
        payload: Dict[str, Any] = {
            "depth": self.depth,
            "winner": self.winner,
            "optimal": self.optimal,
            "lower_bound": self.lower_bound,
            "certifier": self.certifier,
            "seed": self.seed,
            "from_cache": self.from_cache,
            "members": [
                outcome.as_dict(include_timing=include_timing)
                for outcome in self.outcomes
            ],
        }
        if include_timing:
            payload["wall_seconds"] = self.wall_seconds
        return payload


# ----------------------------------------------------------------------
# Serialization (the cache and the batch workers move results as dicts)
# ----------------------------------------------------------------------
def result_to_dict(result: PortfolioResult) -> Dict[str, Any]:
    return {
        "version": RESULT_FORMAT_VERSION,
        "type": "portfolio_result",
        "partition": partition_to_dict(result.partition),
        "winner": result.winner,
        "optimal": result.optimal,
        "lower_bound": result.lower_bound,
        "certifier": result.certifier,
        "seed": result.seed,
        "wall_seconds": result.wall_seconds,
        "outcomes": [outcome.as_dict() for outcome in result.outcomes],
    }


def outcome_from_dict(entry: Dict[str, Any]) -> MemberOutcome:
    """Rebuild one member outcome from its wire/cache dict form.

    The inverse of :meth:`MemberOutcome.as_dict` — also used to carry
    live ``member_finished`` events across the process-pool boundary in
    :mod:`repro.server.engine` (partitions don't survive the trip; the
    depth does).
    """
    return MemberOutcome(
        name=entry["name"],
        depth=entry["depth"],
        seconds=entry.get("seconds", 0.0),
        proved_optimal=entry["proved_optimal"],
        error=entry["error"],
        skipped=entry["skipped"],
        detail=entry.get("detail"),
    )


def result_from_dict(
    payload: Dict[str, Any], *, from_cache: bool = False
) -> PortfolioResult:
    if payload.get("type") != "portfolio_result":
        raise SolverError(
            f"expected a portfolio_result payload, got {payload.get('type')!r}"
        )
    outcomes = tuple(
        outcome_from_dict(entry) for entry in payload["outcomes"]
    )
    return PortfolioResult(
        partition=partition_from_dict(payload["partition"]),
        winner=payload["winner"],
        optimal=payload["optimal"],
        lower_bound=payload["lower_bound"],
        certifier=payload["certifier"],
        seed=payload["seed"],
        wall_seconds=payload["wall_seconds"],
        outcomes=outcomes,
        from_cache=from_cache,
    )


# ----------------------------------------------------------------------
# Running one member
# ----------------------------------------------------------------------
def _parse_trials(name: str, default: int) -> int:
    _, colon, trials_text = name.partition(":")
    if not colon:
        return default
    try:
        trials = int(trials_text)
    except ValueError:
        raise SolverError(
            f"bad trial count {trials_text!r} in member spec {name!r}"
        ) from None
    if trials < 1:
        raise SolverError(
            f"trial count must be >= 1 in member spec {name!r}, got {trials}"
        )
    return trials


def run_member(
    matrix: BinaryMatrix,
    name: str,
    *,
    seed: Optional[int] = None,
    time_budget: Optional[float] = None,
    upper_hint: Optional[Partition] = None,
    cancel: Optional[object] = None,
) -> MemberOutcome:
    """Run one portfolio member and validate whatever it returns.

    An exact backend's partition is validated here; the registry
    heuristics (``trivial_partition`` and ``best_of_trials``) validate
    theirs on ``matrix`` before they return it.  Never raises on solver
    failure: budget exhaustion and invalid output become ``error`` on
    the outcome so one bad member cannot take down the solve.
    ``cancel`` (an ``is_set()``-style flag) is forwarded to the exact
    backends, which poll it alongside their time budgets.
    """
    began = time.perf_counter()
    partition: Optional[Partition] = None
    proved = False
    error: Optional[str] = None
    detail: Optional[Dict[str, Any]] = None
    try:
        kind = name.partition(":")[0]
        if kind in ("sap", "sap_paper"):
            result = sap_solve(
                matrix,
                options=SapOptions(
                    trials=_parse_trials(name, 32),
                    seed=seed,
                    use_fooling_bound=kind == "sap",
                    time_budget=time_budget,
                    cancel=cancel,
                ),
            )
            partition = result.partition
            proved = result.proved_optimal
            detail = {
                "phase_seconds": dict(result.phase_seconds),
                "heuristic_depth": result.heuristic_depth,
                "queries": len(result.queries),
                "final_query_unsat": bool(
                    result.queries
                    and result.queries[-1].status is SolveStatus.UNSAT
                ),
            }
        elif kind == "branch_bound":
            bb = binary_rank_branch_bound(
                matrix,
                upper_hint=upper_hint,
                time_budget=time_budget,
                cancel=cancel,
            )
            partition = bb.partition
            proved = bb.optimal
            detail = {"nodes": bb.nodes}
        else:
            partition = make_heuristic(name)(matrix, seed)
        if kind in EXACT_MEMBERS and partition is not None:
            partition.validate(matrix)
    except (BudgetExceeded, SolverError, InvalidPartitionError) as exc:
        partition = None
        proved = False
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - began
    return MemberOutcome(
        name=name,
        depth=None if partition is None else partition.depth,
        seconds=seconds,
        proved_optimal=proved,
        error=error,
        partition=partition,
        detail=detail,
    )


# ----------------------------------------------------------------------
# The portfolio
# ----------------------------------------------------------------------
def _skipped(name: str, error: Optional[str] = None) -> MemberOutcome:
    return MemberOutcome(
        name=name, depth=None, seconds=0.0, skipped=True, error=error
    )


def _run_sequential(
    matrix: BinaryMatrix,
    members: Sequence[str],
    seed: Optional[int],
    pot: PortfolioBudget,
    lower: int,
    stop_when_optimal: bool,
    cancel: Optional[object],
    on_member: Optional[MemberCallback],
) -> Tuple[
    Optional[Partition], Optional[str], Optional[str], List[MemberOutcome]
]:
    """The paper's recipe: members one after another, early exit on proof.

    Returns ``(best, winner, certifier, outcomes)``.  The first strict
    depth improvement wins, the first optimality proof certifies, and
    the Eq. 3 rank bound certifies as soon as the running best matches
    it.
    """
    best: Optional[Partition] = None
    winner: Optional[str] = None
    certifier: Optional[str] = None
    outcomes: List[MemberOutcome] = []

    def emit(outcome: MemberOutcome) -> None:
        outcomes.append(outcome)
        if on_member is not None:
            on_member(outcome)

    for name in members:
        if stop_when_optimal and certifier is not None:
            emit(_skipped(name))
            continue
        if cancel is not None and cancel.is_set():
            emit(_skipped(name, error="cancelled"))
            continue
        if pot.expired():
            emit(_skipped(name, error="portfolio budget exhausted"))
            continue
        outcome = run_member(
            matrix,
            name,
            seed=member_seed(seed, name),
            time_budget=pot.member_budget(),
            upper_hint=best,
            cancel=cancel,
        )
        pot.charge(name, outcome.seconds)
        emit(outcome)
        if outcome.partition is not None and (
            best is None or outcome.partition.depth < best.depth
        ):
            best = outcome.partition
            winner = outcome.name
        if outcome.proved_optimal and certifier is None:
            certifier = outcome.name
        if best is not None and best.depth <= lower and certifier is None:
            certifier = CERTIFIED_BY_RANK
    return best, winner, certifier, outcomes


def _resolve(
    matrix: BinaryMatrix,
    outcomes: List[MemberOutcome],
    on_member: Optional[MemberCallback],
) -> Partition:
    """The trivial fallback, recorded as one more outcome.

    Every member failed or was starved; the trivial partition is free
    and always valid, so the service still returns a result.
    """
    best = trivial_partition(matrix)
    fallback = MemberOutcome(
        name="trivial",
        depth=best.depth,
        seconds=0.0,
        error="fallback: no member produced a partition",
        partition=best,
    )
    outcomes.append(fallback)
    if on_member is not None:
        on_member(fallback)
    return best


def solve_portfolio(
    matrix: BinaryMatrix,
    *,
    members: Sequence[str] = DEFAULT_PORTFOLIO,
    seed: Optional[int] = None,
    budget: BudgetLike = None,
    stop_when_optimal: bool = True,
    cancel: Optional[object] = None,
    on_member: Optional[MemberCallback] = None,
) -> PortfolioResult:
    """Run ``members`` on ``matrix`` and return the best partition found.

    Members run in the given order, each with a slice of the shared
    ``budget``.  Every member gets a seed derived deterministically
    from ``seed`` and its own name (so results do not depend on member
    order or on how instances are distributed over batch workers).
    With ``stop_when_optimal`` the portfolio stops once the best depth
    is certified — either by an exact member's proof or by matching
    the Eq. 3 rank lower bound; remaining members are recorded as
    skipped.  ``cancel`` (``is_set()``-style) aborts the whole solve
    cooperatively; ``on_member`` is called with each
    :class:`MemberOutcome` as it is recorded — the streaming-event hook
    of :class:`repro.server.engine.AsyncSolveEngine`.
    """
    validate_members(members)
    pot = PortfolioBudget.coerce(budget)
    began = time.perf_counter()
    lower = rank_lower_bound(matrix)

    best, winner, certifier, outcomes = _run_sequential(
        matrix, members, seed, pot, lower, stop_when_optimal, cancel,
        on_member,
    )
    if best is None:
        best = _resolve(matrix, outcomes, on_member)
        winner = "trivial"
        if best.depth <= lower and certifier is None:
            certifier = CERTIFIED_BY_RANK

    return PortfolioResult(
        partition=best,
        winner=winner,
        optimal=certifier is not None,
        lower_bound=lower,
        certifier=certifier,
        seed=seed,
        wall_seconds=time.perf_counter() - began,
        outcomes=tuple(outcomes),
    )
