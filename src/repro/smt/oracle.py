"""The decision oracle SAP drives: incremental ``r_B(M) <= b`` queries.

Wraps an encoder so that Algorithm 1's descending-bound loop maps onto
one long-lived solver.  Two query mechanisms are supported:

* ``query_mode='narrow'`` (the paper's): the first query builds the
  formula at the packing upper bound; each subsequent *strictly
  smaller* bound adds the ``f(e) != b`` narrowing clauses while keeping
  all learned clauses.
* ``query_mode='assumption'``: the formula is built once with monotone
  label-usage indicators and every bound becomes a one-literal
  assumption, so queries may move the bound in either direction — this
  is what lets SAP bisect on a single incremental solver.

:func:`descend` is Algorithm 1's loop over such an oracle.  SAP's linear
descent, ``repro audit``, binary matrix completion and the minimum
rectangle cover all run it; each passes its own bounds and its own
check of the answers it keeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.binary_matrix import BinaryMatrix
from repro.core.exceptions import EncodingError
from repro.core.partition import Partition
from repro.sat.proof import ProofLog
from repro.sat.solver import SolveStatus
from repro.smt.encoder import Cell, make_encoder
from repro.utils.timing import Deadline

QUERY_MODES = ("narrow", "assumption")


@dataclass
class OracleQuery:
    """Record of one decision query (feeds the Figure 4 analysis)."""

    bound: int
    status: SolveStatus
    seconds: float
    conflicts: int


@dataclass
class RankDecisionOracle:
    """Answers a sequence of ``r_B(M) <= b`` questions.

    Parameters mirror :func:`repro.smt.encoder.make_encoder`, which the
    oracle calls with its default, precedence symmetry breaking; each
    cell's at-most-one is pairwise up to six labels, sequential above.
    With ``incremental=False`` every query rebuilds a fresh solver
    (ablation A2 compares the two modes).  ``proof=True`` attaches a
    clausal proof log to each underlying solver so UNSAT answers can be
    audited with :func:`repro.sat.proof.check_refutation` (narrow mode
    only — an assumption-mode UNSAT is conditional, not a refutation).
    ``free`` and ``cover`` pass through to the encoder and turn the
    question into binary matrix completion or the minimum rectangle
    cover; ``first`` passes through too and orders the encoder's cells.
    ``queries``, ``proof_log`` and the encoder are state, not options.
    """

    matrix: BinaryMatrix
    encoding: str = "direct"
    incremental: bool = True
    query_mode: str = "narrow"
    proof: bool = False
    free: Optional[BinaryMatrix] = None
    cover: bool = False
    first: Sequence[Cell] = ()
    queries: List[OracleQuery] = field(default_factory=list, init=False)
    proof_log: Optional[ProofLog] = field(default=None, init=False)
    _encoder: Optional[object] = field(default=None, init=False)

    def __post_init__(self) -> None:
        if self.query_mode not in QUERY_MODES:
            raise EncodingError(
                f"query_mode must be one of {QUERY_MODES}, "
                f"got {self.query_mode!r}"
            )
        if self.query_mode == "assumption":
            if self.encoding != "direct":
                raise EncodingError(
                    "assumption queries require the direct encoding"
                )
            if not self.incremental:
                raise EncodingError(
                    "assumption queries are inherently incremental; "
                    "pass incremental=True"
                )

    def check_at_most(
        self,
        bound: int,
        *,
        conflict_budget: Optional[int] = None,
        time_budget: Optional[float] = None,
    ) -> Tuple[SolveStatus, Optional[Partition]]:
        """Is there an answer with at most ``bound`` rectangles?

        Returns the decoded model on SAT.  It is not validated yet: the
        caller checks it against its own problem, as :func:`descend`'s
        ``accept`` does.  In narrow mode bounds must not increase across
        calls; assumption mode accepts any bound at or below the first
        one.
        """
        import time

        started = time.perf_counter()
        encoder, assumptions = self._prepare(bound)
        conflicts_before = encoder.solver.stats.conflicts
        status = encoder.solve(
            assumptions=assumptions,
            conflict_budget=conflict_budget,
            time_budget=time_budget,
        )
        answer = encoder.decode() if status is SolveStatus.SAT else None
        self.queries.append(
            OracleQuery(
                bound=bound,
                status=status,
                seconds=time.perf_counter() - started,
                conflicts=encoder.solver.stats.conflicts - conflicts_before,
            )
        )
        return status, answer

    def prime(self, bound: int) -> None:
        """Pre-build the formula at ``bound`` without solving.

        Assumption-mode bisection must prime at the largest bound it may
        ever query, since the structural bound cannot widen later.
        """
        if self._encoder is None:
            self._encoder = self._build(bound)

    def _prepare(self, bound: int) -> Tuple[object, List[int]]:
        if self.query_mode == "assumption":
            if self._encoder is None:
                self._encoder = self._build(bound)
            if bound > self._encoder.bound:
                raise EncodingError(
                    f"assumption oracle built for bounds <= "
                    f"{self._encoder.bound}, got {bound}"
                )
            return self._encoder, self._encoder.assumption_for(bound)
        if not self.incremental or self._encoder is None:
            self._encoder = self._build(bound)
            return self._encoder, []
        if bound > self._encoder.bound:
            raise EncodingError(
                f"incremental oracle cannot widen bound "
                f"{self._encoder.bound} -> {bound}"
            )
        if bound < self._encoder.bound:
            self._encoder.narrow_to(bound)
        return self._encoder, []

    def _build(self, bound: int):
        if self.proof:
            self.proof_log = ProofLog()
        return make_encoder(
            self.matrix,
            bound,
            encoding=self.encoding,
            proof=self.proof_log,
            indicators=self.query_mode == "assumption",
            free=self.free,
            cover=self.cover,
            first=self.first,
        )

    def verify_refutation(self) -> None:
        """Independently check the UNSAT proof of the last descent.

        Only meaningful after an unconditional UNSAT answer from a
        proof-enabled, narrow-mode oracle; raises
        :class:`~repro.core.exceptions.ProofError` otherwise.
        """
        from repro.core.exceptions import ProofError
        from repro.sat.proof import check_refutation

        if self.proof_log is None:
            raise ProofError("oracle was not created with proof=True")
        check_refutation(self.proof_log)

    @property
    def total_seconds(self) -> float:
        return sum(query.seconds for query in self.queries)


def descend(
    oracle: RankDecisionOracle,
    best: Partition,
    lower: int,
    accept: Callable[[Partition], Partition],
    *,
    deadline: Deadline,
    conflict_budget: Optional[int] = None,
) -> Tuple[Partition, bool]:
    """Algorithm 1's descent: ask ``b = |best| - 1, |best| - 2, ...``.

    ``accept`` turns each SAT answer into the new ``best``: it lifts the
    answer where needed and validates it against the caller's problem,
    raising if it is invalid.  The descent stops at the first UNSAT
    (``best`` is optimal), when ``b`` falls below ``lower`` (optimal by
    that bound), or when the deadline or a query's conflict budget runs
    out.  Returns ``(best, proved)``.
    """
    bound = best.depth - 1
    while bound >= lower:
        if deadline.expired():
            return best, False
        status, answer = oracle.check_at_most(
            bound,
            conflict_budget=conflict_budget,
            time_budget=deadline.remaining(),
        )
        if status is SolveStatus.UNSAT:
            return best, True
        if status is not SolveStatus.SAT:  # a budget ran out mid-query
            return best, False
        best = accept(answer)
        bound = best.depth - 1
    return best, True
