"""Exact boolean rank (minimum rectangle cover) via SAT.

The label encoding is :class:`repro.smt.encoder.DirectEncoder` with
``cover=True``, a relaxation of the partition formula: each 1-cell may
carry *several* labels (at-least-one instead of exactly-one), and two
cells sharing a label need only have all-ones cross cells — no closure
pull, because overlaps are legal.  Label classes decode to their spans,
which the pair constraints keep inside the 1s.  The search is
:func:`repro.smt.oracle.descend`, SAP's own descent.

Lower bound: fooling sets remain sound for covers (two fooling cells
cannot share any rectangle); the real-rank bound of Eq. 3 does *not*
apply (boolean rank can undercut real rank), which is itself a fact the
tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.binary_matrix import BinaryMatrix
from repro.core.bounds import fooling_lower_bound
from repro.core.exceptions import SolverError
from repro.core.partition import Partition
from repro.cover.greedy import greedy_cover
from repro.cover.validate import validate_cover
from repro.smt.oracle import OracleQuery, RankDecisionOracle, descend
from repro.utils.rng import RngLike
from repro.utils.timing import Deadline


@dataclass
class CoverResult:
    cover: Partition
    proved_optimal: bool
    lower_bound: int
    heuristic_depth: int
    queries: List[OracleQuery] = field(default_factory=list)

    @property
    def depth(self) -> int:
        return self.cover.depth

    @property
    def boolean_rank(self) -> Optional[int]:
        return self.cover.depth if self.proved_optimal else None


def minimum_cover(
    matrix: BinaryMatrix,
    *,
    trials: int = 16,
    seed: RngLike = None,
    time_budget: Optional[float] = None,
) -> CoverResult:
    """SAP-style descent for the cover number (boolean rank)."""
    if matrix.is_zero():
        return CoverResult(
            cover=Partition([], matrix.shape),
            proved_optimal=True,
            lower_bound=0,
            heuristic_depth=0,
        )
    heuristic = greedy_cover(matrix, trials=trials, seed=seed)
    lower = fooling_lower_bound(matrix, seed=seed)
    oracle = RankDecisionOracle(matrix, cover=True)

    def accept(cover: Partition) -> Partition:
        validate_cover(matrix, cover)
        return cover

    best, proved = descend(
        oracle, heuristic, lower, accept, deadline=Deadline(time_budget)
    )
    return CoverResult(
        cover=best,
        proved_optimal=proved,
        lower_bound=lower,
        heuristic_depth=heuristic.depth,
        queries=oracle.queries,
    )


def boolean_rank(
    matrix: BinaryMatrix,
    *,
    trials: int = 16,
    seed: RngLike = None,
    time_budget: Optional[float] = None,
) -> int:
    """The exact boolean rank; raises if the budget runs out."""
    result = minimum_cover(
        matrix, trials=trials, seed=seed, time_budget=time_budget
    )
    if not result.proved_optimal:
        raise SolverError(
            f"boolean rank not proven within budget; best cover "
            f"{result.depth}, lower bound {result.lower_bound}"
        )
    return result.depth
