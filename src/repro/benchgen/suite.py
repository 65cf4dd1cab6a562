"""Named benchmark suites mirroring the rows of Table I.

Each suite is a list of :class:`BenchmarkCase`; the ``scale`` knob
switches between paper-scale counts (Section IV-A) and laptop-friendly
defaults (:func:`table1_suites` lists both).

A case's seed is fixed by its position in its suite, never by the draws
of the cases before it, so each case can be drawn on its own.  The
Table I set builders therefore return :data:`PendingCase` callables,
and a capped corpus profile thins a set before it draws any matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, TypeVar

from repro.benchgen.gap import gap_matrix
from repro.benchgen.known_optimal import known_optimal_matrix
from repro.benchgen.random_matrices import random_matrix
from repro.core.binary_matrix import BinaryMatrix
from repro.utils.rng import spawn_seeds

SCALES = ("quick", "paper")

SMALL_OCCUPANCIES = tuple(x / 10 for x in range(1, 10))
LARGE_OCCUPANCIES = (0.01, 0.02, 0.05, 0.10, 0.20)


@dataclass(frozen=True)
class BenchmarkCase:
    """One benchmark instance plus its provenance."""

    case_id: str
    family: str
    matrix: BinaryMatrix
    known_binary_rank: Optional[int] = None
    params: Dict[str, object] = field(default_factory=dict, hash=False)

    def __repr__(self) -> str:
        return f"BenchmarkCase({self.case_id})"


def _per_cell_count(scale: str, paper_count: int, quick_count: int) -> int:
    return paper_count if scale == "paper" else quick_count


T = TypeVar("T")


def flatten_suites(suites: Dict[str, List[T]]) -> List[T]:
    """All cases of all families in stable (family, then case) order.

    The flat list is what :func:`repro.service.batch.solve_batch`
    consumes — a ``BenchmarkCase`` already quacks like a batch item
    (``case_id`` + ``matrix``), so experiment runners can fan a whole
    table out through the service without conversion code.
    """
    return [case for cases in suites.values() for case in cases]


PendingCase = Callable[[], BenchmarkCase]
"""A case whose matrix is drawn when it is called."""


def _build(pending: Sequence[PendingCase]) -> List[BenchmarkCase]:
    return [make() for make in pending]


def _random_case(
    shape: Sequence[int], occupancy: float, repeat: int, seed: int
) -> BenchmarkCase:
    num_rows, num_cols = shape
    return BenchmarkCase(
        case_id=f"rand-{num_rows}x{num_cols}-occ{occupancy:g}-{repeat}",
        family=f"{num_rows}x{num_cols}, rand",
        matrix=random_matrix(num_rows, num_cols, occupancy, seed=seed),
        params={"occupancy": occupancy, "repeat": repeat},
    )


def _pending_random(
    shape: Sequence[int],
    occupancies: Sequence[float],
    count_per_occupancy: int,
    seed: int,
) -> List[PendingCase]:
    grid = [
        (occupancy, repeat)
        for occupancy in occupancies
        for repeat in range(count_per_occupancy)
    ]
    seeds = spawn_seeds(seed, len(grid), salt=f"rand{shape[0]}x{shape[1]}")
    return [
        partial(_random_case, shape, occupancy, repeat, case_seed)
        for (occupancy, repeat), case_seed in zip(grid, seeds)
    ]


def random_suite(
    shape: Sequence[int],
    occupancies: Sequence[float],
    count_per_occupancy: int,
    *,
    seed: int = 2024,
) -> List[BenchmarkCase]:
    """Set 1 for one shape: ``count`` matrices per occupancy."""
    return _build(
        _pending_random(shape, occupancies, count_per_occupancy, seed)
    )


def _known_optimal_case(
    shape: Sequence[int], rank: int, repeat: int, seed: int
) -> BenchmarkCase:
    num_rows, num_cols = shape
    matrix, _ = known_optimal_matrix(num_rows, num_cols, rank, seed=seed)
    return BenchmarkCase(
        case_id=f"opt-{num_rows}x{num_cols}-k{rank}-{repeat}",
        family=f"{num_rows}x{num_cols}, opt",
        matrix=matrix,
        known_binary_rank=rank,
        params={"rank": rank, "repeat": repeat},
    )


def _pending_known_optimal(
    shape: Sequence[int],
    ranks: Sequence[int],
    count_per_rank: int,
    seed: int,
) -> List[PendingCase]:
    grid = [
        (rank, repeat) for rank in ranks for repeat in range(count_per_rank)
    ]
    seeds = spawn_seeds(seed, len(grid), salt="known-optimal")
    return [
        partial(_known_optimal_case, shape, rank, repeat, case_seed)
        for (rank, repeat), case_seed in zip(grid, seeds)
    ]


def known_optimal_suite(
    shape: Sequence[int],
    ranks: Sequence[int],
    count_per_rank: int,
    *,
    seed: int = 2024,
) -> List[BenchmarkCase]:
    """Set 2: matrices with known ``r_B`` (Eq. 3 certificate)."""
    return _build(_pending_known_optimal(shape, ranks, count_per_rank, seed))


def _gap_case(
    shape: Sequence[int], num_pairs: int, repeat: int, seed: int
) -> BenchmarkCase:
    num_rows, num_cols = shape
    return BenchmarkCase(
        case_id=f"gap-{num_rows}x{num_cols}-p{num_pairs}-{repeat}",
        family=f"{num_rows}x{num_cols}, gap, {num_pairs}",
        matrix=gap_matrix(num_rows, num_cols, num_pairs, seed=seed),
        params={"num_pairs": num_pairs, "repeat": repeat},
    )


def _pending_gap(
    shape: Sequence[int], num_pairs: int, count: int, seed: int
) -> List[PendingCase]:
    seeds = spawn_seeds(seed, count, salt=f"gap{num_pairs}")
    return [
        partial(_gap_case, shape, num_pairs, repeat, case_seed)
        for repeat, case_seed in enumerate(seeds)
    ]


def gap_suite(
    shape: Sequence[int],
    num_pairs: int,
    count: int,
    *,
    seed: int = 2024,
) -> List[BenchmarkCase]:
    """Set 3 for one pair count."""
    return _build(_pending_gap(shape, num_pairs, count, seed))


def _rand_suites(
    scale: str, seed: int, *, include_large: bool = True
) -> Dict[str, List[PendingCase]]:
    """The Set-1 rows (random ensembles), keyed by paper row label."""
    count_small = _per_cell_count(scale, 10, 3)
    count_large = _per_cell_count(scale, 10, 2)
    large_occupancies = (
        LARGE_OCCUPANCIES if scale == "paper" else (0.01, 0.02, 0.05)
    )
    suites: Dict[str, List[PendingCase]] = {}
    for shape in ((10, 10), (10, 20), (10, 30)):
        label = f"{shape[0]}x{shape[1]}, rand"
        suites[label] = _pending_random(
            shape, SMALL_OCCUPANCIES, count_small, seed
        )
    if include_large:
        suites["100x100, rand"] = _pending_random(
            (100, 100), large_occupancies, count_large, seed
        )
    return suites


def _opt_suites(
    scale: str, seed: int
) -> Dict[str, List[PendingCase]]:
    """The Set-2 row (known-optimal certificates)."""
    count_opt = _per_cell_count(scale, 10, 4)
    return {
        "10x10, opt": _pending_known_optimal(
            (10, 10), range(1, 11), count_opt, seed
        )
    }


def _gap_suites(
    scale: str, seed: int
) -> Dict[str, List[PendingCase]]:
    """The Set-3 rows (real-vs-binary rank gaps)."""
    count_gap = _per_cell_count(scale, 100, 12)
    return {
        f"10x10, gap, {pairs}": _pending_gap((10, 10), pairs, count_gap, seed)
        for pairs in (2, 3, 4, 5)
    }


TABLE1_SET_BUILDERS = {
    "rand": _rand_suites,
    "opt": _opt_suites,
    "gap": _gap_suites,
}
"""The single source of truth for the Table-I instance sets.

Both :func:`table1_suites` (the experiment harness view) and the
``table1-*`` corpus families registered below (the scoreboard view)
enumerate from these builders, so the two can never drift apart.  Each
returns its suites as :data:`PendingCase` lists, keyed by row label.
"""


def table1_suites(
    *,
    scale: str = "quick",
    seed: int = 2024,
    include_large: bool = True,
) -> Dict[str, List[BenchmarkCase]]:
    """All Table I benchmark families, keyed by the paper's row labels.

    Paper scale: 10 matrices per occupancy for the small random sets,
    10 per rank for Set 2, 100 per pair count for Set 3.  Quick scale
    cuts the counts (3 / 4 / 12 respectively) and the large occupancy
    list — orderings in the reproduced table are unaffected.
    """
    if scale not in SCALES:
        raise ValueError(f"scale must be one of {SCALES}, got {scale!r}")
    pending: Dict[str, List[PendingCase]] = {}
    pending.update(_rand_suites(scale, seed, include_large=include_large))
    pending.update(_opt_suites(scale, seed))
    pending.update(_gap_suites(scale, seed))
    return {label: _build(makes) for label, makes in pending.items()}


# ----------------------------------------------------------------------
# Corpus registration: the Table-I sets as standing corpus families.
# ----------------------------------------------------------------------
def _register_corpus_families() -> None:
    """Expose each Table-I set as a corpus family built from the same
    :data:`TABLE1_SET_BUILDERS` that :func:`table1_suites` uses.

    Profile mapping: ``full`` is the paper scale, uncapped (the corpus
    enumerates *exactly* ``flatten_suites(table1_suites(scale="paper"))``
    per set); ``quick``/``smoke`` use the quick scale without the
    100x100 slice, thinned to a per-family cap that still spans the
    occupancy / rank / pair-count ranges.  Only the cases the cap keeps
    are drawn: smoke draws 3 of the 40 quick-scale Set-2 matrices, not
    the rank-9 and rank-10 ones whose disjoint row vectors take
    thousands of attempts.
    """
    from repro.corpus.registry import (
        instance_from_case,
        register_family,
        thin,
        validate_profile,
    )

    caps = {"smoke": 3, "quick": 12, "full": None}

    def make_builder(set_name: str):
        def build(profile: str, seed: int):
            validate_profile(profile)
            scale = "paper" if profile == "full" else "quick"
            builder = TABLE1_SET_BUILDERS[set_name]
            if set_name == "rand":
                suites = builder(
                    scale, seed, include_large=(profile == "full")
                )
            else:
                suites = builder(scale, seed)
            pending = thin(flatten_suites(suites), caps[profile])
            return [
                instance_from_case(
                    case, family=f"table1-{set_name}", seed=seed
                )
                for case in _build(pending)
            ]

        return build

    descriptions = {
        "rand": "Table I Set 1: Bernoulli random ensembles "
        "(10x10 / 10x20 / 10x30, plus 100x100 at full profile)",
        "opt": "Table I Set 2: matrices with certified optimal "
        "partitions (known binary rank)",
        "gap": "Table I Set 3: real-vs-binary rank gap constructions",
    }
    for set_name, description in descriptions.items():
        register_family(
            f"table1-{set_name}",
            description,
            tags=("paper", "table1"),
        )(make_builder(set_name))


_register_corpus_families()
