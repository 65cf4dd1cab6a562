"""Exact minimum addressing with don't-cares (binary matrix completion).

The label encoding is :class:`repro.smt.encoder.DirectEncoder` with
``free`` set to the 1s plus the don't-cares: for 1-cells ``(i, j)`` and
``(i', j')`` in distinct rows and columns,

* sharing a rectangle is forbidden when a cross cell is a hard 0,
* sharing forces any cross cell that is a required 1 into the same
  rectangle,
* don't-care cross cells impose nothing — the rectangle simply covers
  the vacancy.

Label classes are then rectangles whose spans avoid 0s and whose 1-cells
are exactly the class members, so the decoded rectangles may overlap on
don't-cares only — the physical semantics of vacant sites.  The search
is :func:`repro.smt.oracle.descend`, SAP's own descent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.completion.heuristic import masked_row_packing
from repro.completion.masked import (
    MaskedMatrix,
    masked_fooling_number,
    validate_masked_partition,
)
from repro.core.partition import Partition
from repro.smt.oracle import OracleQuery, RankDecisionOracle, descend
from repro.solvers.row_packing import PackingOptions
from repro.utils.rng import RngLike
from repro.utils.timing import Deadline


@dataclass
class MaskedOutcome:
    """Result of :func:`masked_minimum_addressing`."""

    partition: Partition
    proved_optimal: bool
    lower_bound: int
    heuristic_depth: int
    queries: List[OracleQuery] = field(default_factory=list)

    @property
    def depth(self) -> int:
        return self.partition.depth


def masked_minimum_addressing(
    masked: MaskedMatrix,
    *,
    trials: int = 32,
    seed: RngLike = None,
    time_budget: Optional[float] = None,
) -> MaskedOutcome:
    """SAP-style descent for the masked problem.

    Heuristic upper bound from masked row packing, fooling-set lower
    bound (Eq. 3's rank bound is unsound under don't-cares), incremental
    SAT descent in between.
    """
    heuristic = masked_row_packing(
        masked, options=PackingOptions(trials=trials, seed=seed)
    )
    lower = masked_fooling_number(masked)
    oracle = RankDecisionOracle(masked.ones_matrix, free=masked.free_matrix())

    def accept(partition: Partition) -> Partition:
        validate_masked_partition(masked, partition)
        return partition

    best, proved = descend(
        oracle, heuristic, lower, accept, deadline=Deadline(time_budget)
    )
    return MaskedOutcome(
        partition=best,
        proved_optimal=proved,
        lower_bound=lower,
        heuristic_depth=heuristic.depth,
        queries=oracle.queries,
    )
