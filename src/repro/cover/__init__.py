"""Minimum rectangle cover (boolean rank) — the non-disjoint variant."""

from repro.cover.exact import (
    CoverResult,
    boolean_rank,
    minimum_cover,
)
from repro.cover.greedy import greedy_cover, greedy_cover_once
from repro.cover.lp import (
    FractionalCoverResult,
    fractional_cover,
    lp_lower_bound,
)
from repro.cover.maximal import is_maximal, maximal_rectangles
from repro.cover.validate import is_valid_cover, validate_cover

__all__ = [
    "CoverResult",
    "FractionalCoverResult",
    "fractional_cover",
    "is_maximal",
    "lp_lower_bound",
    "maximal_rectangles",
    "boolean_rank",
    "greedy_cover",
    "greedy_cover_once",
    "is_valid_cover",
    "minimum_cover",
    "validate_cover",
]
