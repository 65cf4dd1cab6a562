"""Batched portfolio solving over a worker pool.

``solve_batch`` fans a list of instances across ``workers`` processes,
checking the result cache first and writing fresh results back.  Every
instance gets a root seed derived from the batch seed and its own
``case_id`` — never from its position or from which worker picked it
up — so a batch produces identical provenance for any pool size,
including the in-process ``workers=1`` path.

:class:`SolveOptions` holds a solve's configuration for ``solve_batch``,
the streaming :class:`repro.server.engine.AsyncSolveEngine` and the
gateway's request check alike: it validates the six options and turns
an item into its cache-key context and its worker payload, which
:func:`repro.service.pool.solve_case` solves on every executor.

With ``workers > 1`` the misses are solved on a
:class:`repro.service.pool.WorkerPool`, driven from one thread per
slot.  When a worker dies — OOM kill, segfaulting native dep, fault
injection — only the case that worker was solving is lost: the pool
respawns the slot and re-dispatches the case, whose record comes back
``status="retried"``; every other case's provenance is untouched.  A
case that kills its worker twice is a poison pill and fails the batch
with a :class:`SolverError` naming it.
"""

from __future__ import annotations

import concurrent.futures
import functools
import numbers
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.core.binary_matrix import BinaryMatrix
from repro.core.exceptions import SolverError
from repro.service import faults
from repro.service.budget import BudgetLike, PortfolioBudget
from repro.service.cache import ResultCache, matrix_key
from repro.service.pool import FaultCallback, Payload, WorkerPool, solve_case
from repro.service.schema import SOLVER_SCHEMA_VERSION
from repro.service.portfolio import (
    DEFAULT_PORTFOLIO,
    RACE_MODES,
    PortfolioResult,
    result_from_dict,
    validate_members,
)
from repro.utils.rng import spawn_seeds


@dataclass(frozen=True)
class BatchItem:
    """One instance of a batch: an id, a matrix, optional member override."""

    case_id: str
    matrix: BinaryMatrix
    members: Optional[Tuple[str, ...]] = None


CaseLike = Union[BatchItem, BinaryMatrix, Tuple[str, BinaryMatrix], Any]


def as_batch_items(
    cases: Sequence[CaseLike],
    *,
    members: Optional[Sequence[str]] = None,
) -> List[BatchItem]:
    """Normalize heterogeneous case inputs into :class:`BatchItem` s.

    Accepts ready items, bare matrices (ids are synthesized from the
    position), ``(case_id, matrix)`` pairs, and anything with
    ``case_id``/``matrix`` attributes (e.g.
    :class:`repro.benchgen.suite.BenchmarkCase`).  An item without its
    own member set gets ``members``, and every member set is validated
    here, so a malformed spec fails the call, not a pool worker.
    """
    override = None if members is None else tuple(members)
    items: List[BatchItem] = []
    for index, case in enumerate(cases):
        if isinstance(case, BatchItem):
            item = case
            if override is not None and item.members is None:
                item = BatchItem(item.case_id, item.matrix, override)
        elif isinstance(case, BinaryMatrix):
            item = BatchItem(f"case-{index:04d}", case, override)
        elif isinstance(case, tuple) and len(case) == 2:
            item = BatchItem(str(case[0]), case[1], override)
        elif hasattr(case, "case_id") and hasattr(case, "matrix"):
            item = BatchItem(case.case_id, case.matrix, override)
        else:
            raise SolverError(f"cannot interpret {case!r} as a batch item")
        items.append(item)
    for member_set in {item.members for item in items} - {None}:
        validate_members(member_set)
    seen: Dict[str, int] = {}
    for item in items:
        seen[item.case_id] = seen.get(item.case_id, 0) + 1
    duplicates = sorted(cid for cid, count in seen.items() if count > 1)
    if duplicates:
        raise SolverError(
            f"duplicate case ids in batch: {duplicates[:5]} "
            "(per-instance seeding requires unique ids)"
        )
    return items


def instance_seed(batch_seed: Optional[int], case_id: str) -> Optional[int]:
    """Root seed for one instance; independent of batch order and pool."""
    if batch_seed is None:
        return None
    return spawn_seeds(batch_seed, 1, salt=f"batch/{case_id}")[0]


def solve_context(
    members: Tuple[str, ...],
    seed: Optional[int],
    budget_total: Optional[float],
    budget_per_member: Optional[float],
    stop_when_optimal: bool,
    race: str = "sequential",
) -> str:
    """Cache-key context for one configured solve.

    Folded into :func:`repro.service.cache.matrix_key` so a cache can
    never serve a result computed under a different member set, seed,
    or budget for the same matrix content.  The context leads with
    :data:`~repro.service.schema.SOLVER_SCHEMA_VERSION`, so bumping the
    schema retires every previously cached result at once — stale
    entries stop hitting instead of masquerading as fresh scoreboard
    wins.  Concurrent racing gets its own key space (per-member records
    legitimately differ between race modes).
    """
    context = (
        f"schema={SOLVER_SCHEMA_VERSION}"
        f"|members={','.join(members)}|seed={seed}|total={budget_total}"
        f"|per={budget_per_member}|stop={stop_when_optimal}"
    )
    if race != "sequential":
        context += f"|race={race}"
    return context


def _number(value: Any, kind: type) -> bool:
    """``isinstance(value, kind)``, where a bool counts as no number."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _seconds(value: Any) -> bool:
    """``None`` (unlimited) or a number of seconds, not negative."""
    return value is None or (_number(value, numbers.Real) and not value < 0)


_OPTION_CHECKS = {
    "seed": (
        "an integer",
        lambda value: value is None or _number(value, numbers.Integral),
    ),
    "budget_per_instance": ("a number of seconds >= 0", _seconds),
    "budget_per_member": ("a number of seconds >= 0", _seconds),
    "stop_when_optimal": ("a boolean", lambda value: isinstance(value, bool)),
    "race": (f"one of {RACE_MODES}", lambda value: value in RACE_MODES),
}


@dataclass(frozen=True)
class SolveOptions:
    """The configuration of a solve, validated once (see module docs).

    ``members`` becomes a tuple and each budget a float, so ``5`` and
    ``5.0`` seconds share one cache key whatever the entry point; the
    other values are kept as given.
    """

    members: Tuple[str, ...] = DEFAULT_PORTFOLIO
    seed: Optional[int] = 2024
    budget_per_instance: Optional[float] = None
    budget_per_member: Optional[float] = None
    stop_when_optimal: bool = True
    race: str = "sequential"

    def __post_init__(self) -> None:
        members = self.members
        listed = isinstance(members, Sequence) and not isinstance(members, str)
        if not listed or not all(isinstance(spec, str) for spec in members):
            raise SolverError(
                f"members must be a list of member specs, got {members!r}"
            )
        validate_members(members)
        object.__setattr__(self, "members", tuple(members))
        for name, (expected, valid) in _OPTION_CHECKS.items():
            value = getattr(self, name)
            if not valid(value):
                raise SolverError(f"{name} must be {expected}, got {value!r}")
        for name in ("budget_per_instance", "budget_per_member"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, float(value))

    def context(self, item: BatchItem) -> str:
        """The cache-key context of ``item`` solved under these options."""
        return solve_context(
            item.members,
            instance_seed(self.seed, item.case_id),
            self.budget_per_instance,
            self.budget_per_member,
            self.stop_when_optimal,
            self.race,
        )

    def payload(self, item: BatchItem) -> Payload:
        """The worker payload of ``item``: plain picklable values."""
        return (
            item.case_id,
            item.matrix.row_masks,
            item.matrix.num_cols,
            item.members,
            instance_seed(self.seed, item.case_id),
            self.budget_per_instance,
            self.budget_per_member,
            self.stop_when_optimal,
            self.race,
        )


STATUS_OK = "ok"
STATUS_RETRIED = "retried"


@dataclass
class BatchRecord:
    """One instance's result plus batch-level provenance.

    ``status`` records how the result was obtained: ``"ok"`` for the
    normal path, ``"retried"`` when the case was re-dispatched after
    its worker died.  The solve content is identical either way (same
    per-case seed); the mark exists so callers can see which results
    crossed a crash boundary.
    """

    case_id: str
    key: str
    result: PortfolioResult
    status: str = STATUS_OK

    @property
    def from_cache(self) -> bool:
        return self.result.from_cache

    @property
    def depth(self) -> int:
        return self.result.depth

    def provenance(self, *, include_timing: bool = True) -> Dict[str, Any]:
        payload = self.result.provenance(include_timing=include_timing)
        payload["case_id"] = self.case_id
        payload["key"] = self.key
        if self.status != STATUS_OK:
            # Conditional so fault-free provenance stays byte-identical
            # to every artifact written before this field existed.
            payload["status"] = self.status
        return payload


# ----------------------------------------------------------------------
def solve_batch(
    cases: Sequence[CaseLike],
    *,
    members: Sequence[str] = DEFAULT_PORTFOLIO,
    seed: Optional[int] = 2024,
    workers: int = 1,
    cache: Optional[ResultCache] = None,
    budget_per_instance: BudgetLike = None,
    budget_per_member: Optional[float] = None,
    stop_when_optimal: bool = True,
    race: str = "sequential",
    on_fault: Optional[FaultCallback] = None,
) -> List[BatchRecord]:
    """Solve every case with the portfolio, in input order.

    Cached instances are answered without touching the pool; misses are
    solved (in-process for ``workers=1``, otherwise on a
    :class:`~repro.service.pool.WorkerPool`) and written back, and the
    cache's disk tier is flushed once at the end.  Records come back in
    input order regardless of completion order.  ``budget_per_instance``
    caps one instance's whole race, ``budget_per_member`` one solver
    within it; ``race="concurrent"`` turns each instance's exact-backend
    slice into a cancel-the-losers thread race (see
    :mod:`repro.service.racing`).

    Worker death does not sink the batch: the lost case is re-solved on
    a respawned worker and its record comes back ``status="retried"``
    (same content — per-case seeding makes the retry byte-identical);
    ``on_fault`` receives a structured ``worker_crashed`` event per
    crash.  See ``docs/failure-semantics.md``.
    """
    if workers < 1:
        raise SolverError(f"workers must be >= 1, got {workers}")
    total: Optional[float] = None
    if budget_per_instance is not None:
        pot = PortfolioBudget.coerce(budget_per_instance)
        total = pot.total_seconds
        if budget_per_member is None:
            budget_per_member = pot.per_member_seconds
    options = SolveOptions(
        members, seed, total, budget_per_member, stop_when_optimal, race
    )
    items = as_batch_items(cases, members=options.members)

    keys = {
        item.case_id: matrix_key(item.matrix, options.context(item))
        for item in items
    }
    results: Dict[str, PortfolioResult] = {}
    if cache is not None:
        for item in items:
            cached = cache.get_by_key(keys[item.case_id])
            if cached is not None:
                results[item.case_id] = cached
    pending = [item for item in items if item.case_id not in results]

    retried: Set[str] = set()
    if pending:
        faults.resolve_kill_case([item.case_id for item in pending])
        if workers == 1 or len(pending) == 1:
            for item in pending:
                results[item.case_id] = solve_case(options.payload(item))
        else:
            slots = min(workers, len(pending))
            with WorkerPool(slots) as pool:
                with concurrent.futures.ThreadPoolExecutor(slots) as threads:
                    solved = list(
                        threads.map(
                            functools.partial(pool.solve, on_crash=on_fault),
                            [options.payload(item) for item in pending],
                        )
                    )
            for item, (result, was_retried) in zip(pending, solved):
                results[item.case_id] = result_from_dict(result)
                if was_retried:
                    retried.add(item.case_id)

    if cache is not None:
        for item in items:
            result = results[item.case_id]
            if not result.from_cache:
                cache.put(item.matrix, result, options.context(item))
        cache.flush()

    return [
        BatchRecord(
            case_id=item.case_id,
            key=keys[item.case_id],
            result=results[item.case_id],
            status=(
                STATUS_RETRIED if item.case_id in retried else STATUS_OK
            ),
        )
        for item in items
    ]
