"""SAP — "SMT and packing", Algorithm 1 of the paper.

Row packing supplies a valid EBMF ``P`` (upper bound); the exact-rank
lower bound (Eq. 3) brackets the optimum from below.  The decision
oracle is then queried with ``b = |P| - 1, |P| - 2, ...``, keeping the
best partition found, until a query is unsatisfiable (``P`` proven
optimal) or ``b`` falls below the lower bound (optimal by Eq. 3); that
loop is :func:`repro.smt.oracle.descend`.  The
result always carries the best partition found so far, so interrupting
on a budget still yields a valid solution (paper Observation 5's
"terminate at any time" property).

Three implementation notes beyond the paper's pseudocode:

* the matrix is first compressed by removing empty/duplicate rows and
  columns — this preserves ``r_B`` exactly and shrinks the SMT encoding;
* in incremental mode one solver instance survives the whole descent,
  receiving the paper's ``f(e) != b`` narrowing clauses per step;
* when the rank bound leaves a gap, a maximum fooling set of the
  compressed matrix (Section II) is computed.  Its size is a second
  lower bound, often enough to prove the packing optimal with no query.
  Otherwise the label encoding numbers its cells first, so unit
  propagation pins them to distinct labels before the first decision.
  No answer changes; the UNSAT proofs shrink.  ``use_fooling_bound=
  False`` keeps the paper's formula.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Tuple

from repro.core.binary_matrix import BinaryMatrix
from repro.core.bounds import rank_lower_bound
from repro.core.fooling import max_fooling_set
from repro.core.partition import Partition
from repro.core.reductions import reduce_matrix
from repro.sat.solver import SolveStatus
from repro.smt.oracle import OracleQuery, RankDecisionOracle, descend
from repro.solvers.row_packing import PackingOptions, row_packing
from repro.utils.rng import RngLike
from repro.utils.timing import Deadline, Stopwatch


class SapStatus(Enum):
    OPTIMAL = "optimal"
    FEASIBLE = "feasible"  # valid partition, optimality not proven


DESCENT_MODES = ("linear", "binary", "assumption")


@dataclass
class SapOptions:
    """Configuration for :func:`sap_solve`.

    ``descent='linear'`` is the paper's Algorithm 1 (decrement ``b`` by
    one per query, incremental narrowing).  ``descent='binary'`` bisects
    the ``[lower, depth-1]`` interval instead — fewer queries when the
    heuristic is far from optimal, but each query starts a fresh solver
    (bounds may move up, which incremental narrowing cannot).
    ``descent='assumption'`` also bisects but keeps one incremental
    solver alive for the whole search: the bound becomes a one-literal
    assumption over monotone label-usage indicators, so learned clauses
    carry across queries in both directions (requires the direct
    encoding).

    ``use_fooling_bound`` (default on) computes one maximum fooling set
    of the compressed matrix when the rank bound does not meet the
    packing depth, and only while the time budget lasts.  Its size
    raises the lower bound, and the direct encoding numbers its cells
    first.  ``False`` is the paper's formula: the Eq. 3 bound alone and
    the 1-cells in row-major order.

    The formula itself is fixed: precedence symmetry breaking, and each
    cell's at-most-one pairwise up to six labels, sequential above.
    Besides ``trials``, ``seed`` and ``time_budget``, the options and
    who sets them:

    * ``encoding`` — ``"binary"`` is the paper's bit-vector formula,
      which ``tests/integration/test_cross_solver.py`` compares with the
      direct one;
    * ``incremental`` and ``reduce`` —
      ``benchmarks/bench_ablation_encoding.py``;
    * ``descent`` and ``packing`` — ablation A8
      (:mod:`repro.experiments.ablation`);
    * ``use_fooling_bound`` — the ``sap`` and ``sap_paper`` portfolio
      members;
    * ``cancel`` — the portfolio, to stop a member;
    * ``conflict_budget_per_query`` — no caller yet: it is kept for
      measuring the exact frontier past 10×10 at a fixed conflict
      budget per query (ROADMAP, "Move the exact frontier").
    """

    trials: int = 100
    seed: RngLike = None
    encoding: str = "direct"
    incremental: bool = True
    reduce: bool = True
    use_fooling_bound: bool = True
    descent: str = "linear"
    time_budget: Optional[float] = None
    conflict_budget_per_query: Optional[int] = None
    packing: Optional[PackingOptions] = None
    cancel: Optional[object] = None
    """Cooperative cancellation flag (``is_set() -> bool``); checked at
    the same points as the time budget, so setting it aborts the SMT
    descent between oracle queries while keeping the best partition."""

    def __post_init__(self) -> None:
        if self.descent not in DESCENT_MODES:
            raise ValueError(
                f"descent must be one of {DESCENT_MODES}, "
                f"got {self.descent!r}"
            )

    def packing_options(self) -> PackingOptions:
        if self.packing is not None:
            return self.packing
        return PackingOptions(trials=self.trials, seed=self.seed)


@dataclass
class SapResult:
    """Outcome of a SAP run."""

    partition: Partition
    status: SapStatus
    lower_bound: int
    heuristic_depth: int
    queries: List[OracleQuery] = field(default_factory=list)
    phase_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def depth(self) -> int:
        return self.partition.depth

    @property
    def proved_optimal(self) -> bool:
        return self.status is SapStatus.OPTIMAL

    @property
    def binary_rank(self) -> Optional[int]:
        """``r_B(M)`` if proven, else ``None``."""
        return self.partition.depth if self.proved_optimal else None

    @property
    def smt_seconds(self) -> float:
        return self.phase_seconds.get("smt", 0.0)

    @property
    def packing_seconds(self) -> float:
        return self.phase_seconds.get("packing", 0.0)


def sap_solve(
    matrix: BinaryMatrix,
    *,
    options: Optional[SapOptions] = None,
    **kwargs,
) -> SapResult:
    """Run Algorithm 1 on ``matrix``."""
    if options is None:
        options = SapOptions(**kwargs)
    elif kwargs:
        raise ValueError("pass either options or keyword arguments, not both")

    watch = Stopwatch()
    deadline = Deadline(options.time_budget, cancel=options.cancel)

    if matrix.is_zero():
        return SapResult(
            partition=Partition([], matrix.shape),
            status=SapStatus.OPTIMAL,
            lower_bound=0,
            heuristic_depth=0,
        )

    # Line 1: the heuristic upper bound.
    with watch.time("packing"):
        best = row_packing(matrix, options=options.packing_options())
    heuristic_depth = best.depth

    # Eq. 3 lower bound.
    with watch.time("bounds"):
        lower = rank_lower_bound(matrix)

    # Solve on the compressed matrix; lift models back.  Identical rows
    # or columns cannot both hold a fooling cell, so the compressed
    # matrix has the same fooling number, and a smaller search for it.
    reduced = None
    smt_matrix = matrix
    fooling: List[Tuple[int, int]] = []
    if best.depth > lower:
        if options.reduce:
            reduced = reduce_matrix(matrix)
            smt_matrix = reduced.matrix
        if options.use_fooling_bound and not deadline.expired():
            with watch.time("bounds"):
                fooling = max_fooling_set(smt_matrix, seed=options.seed)
            lower = max(lower, len(fooling))

    if best.depth <= lower:
        return SapResult(
            partition=best,
            status=SapStatus.OPTIMAL,
            lower_bound=lower,
            heuristic_depth=heuristic_depth,
            phase_seconds=dict(watch.totals),
        )

    # Binary descent needs fresh solvers: bisection can raise the bound,
    # which the incremental narrowing clauses cannot undo.  Assumption
    # descent bisects too but stays incremental via indicator literals.
    if options.descent == "assumption":
        incremental = True
        query_mode = "assumption"
    else:
        incremental = options.incremental and options.descent == "linear"
        query_mode = "narrow"
    oracle = RankDecisionOracle(
        smt_matrix,
        encoding=options.encoding,
        incremental=incremental,
        query_mode=query_mode,
        first=fooling if options.encoding == "direct" else (),
    )

    def accept(partition: Partition) -> Partition:
        if reduced is not None:
            partition = reduced.lift(partition)
        partition.validate(matrix)
        return partition

    if options.descent == "linear":
        with watch.time("smt"):
            best, proved = descend(
                oracle,
                best,
                lower,
                accept,
                deadline=deadline,
                conflict_budget=options.conflict_budget_per_query,
            )
    else:  # binary | assumption: bisect [lower, depth-1]
        low, high = lower, best.depth - 1  # r_B known to be in [low, high+1]
        proved = True
        if options.descent == "assumption" and low <= high:
            # Build the formula once at the widest bound the search can
            # ask about; later queries only tighten it by assumption.
            with watch.time("smt"):
                oracle.prime(high)
        while low <= high:
            if deadline.expired():
                proved = False
                break
            middle = (low + high) // 2
            with watch.time("smt"):
                query_status, partition = oracle.check_at_most(
                    middle,
                    conflict_budget=options.conflict_budget_per_query,
                    time_budget=deadline.remaining(),
                )
            if query_status is SolveStatus.SAT:
                best = accept(partition)
                high = best.depth - 1
            elif query_status is SolveStatus.UNSAT:
                low = middle + 1
            else:
                proved = False
                break

    return SapResult(
        partition=best,
        status=SapStatus.OPTIMAL if proved else SapStatus.FEASIBLE,
        lower_bound=lower,
        heuristic_depth=heuristic_depth,
        queries=list(oracle.queries),
        phase_seconds=dict(watch.totals),
    )


def binary_rank(
    matrix: BinaryMatrix,
    *,
    options: Optional[SapOptions] = None,
    **kwargs,
) -> int:
    """Convenience: the exact binary rank via SAP (must prove optimality)."""
    result = sap_solve(matrix, options=options, **kwargs)
    if not result.proved_optimal:
        raise TimeoutError(
            "SAP could not prove optimality within budget; "
            f"best depth {result.depth}, lower bound {result.lower_bound}"
        )
    return result.depth
