"""Portfolio solver service: batched, parallel, cached EBMF solving.

The layer between the solver library and traffic: per-instance solver
races with provenance (:mod:`portfolio`; the concurrent exact-backend
race is :mod:`racing`), batch fan-out (:mod:`batch`) over the one
crash-isolating worker pool (:mod:`pool`), a content-addressed result
cache (:mod:`cache`), shared wall-clock accounting (:mod:`budget`), the
solver-config schema version that keys caches and baselines
(:mod:`schema`), and per-solver win accounting shared with the server
metrics ops (:mod:`stats`).
"""

from repro.service.batch import (
    BatchItem,
    BatchRecord,
    as_batch_items,
    instance_seed,
    solve_batch,
    solve_context,
)
from repro.service.budget import PortfolioBudget
from repro.service.cache import CacheStats, ResultCache, matrix_key
from repro.service.schema import SOLVER_SCHEMA_VERSION
from repro.service.stats import WinTally
from repro.service.portfolio import (
    DEFAULT_PORTFOLIO,
    EXACT_MEMBERS,
    RACE_MODES,
    MemberOutcome,
    PortfolioResult,
    is_exact_member,
    member_seed,
    result_from_dict,
    result_to_dict,
    run_member,
    solve_portfolio,
    validate_members,
)

__all__ = [
    "BatchItem",
    "BatchRecord",
    "CacheStats",
    "DEFAULT_PORTFOLIO",
    "EXACT_MEMBERS",
    "MemberOutcome",
    "PortfolioBudget",
    "PortfolioResult",
    "RACE_MODES",
    "ResultCache",
    "SOLVER_SCHEMA_VERSION",
    "WinTally",
    "as_batch_items",
    "instance_seed",
    "is_exact_member",
    "matrix_key",
    "member_seed",
    "result_from_dict",
    "result_to_dict",
    "run_member",
    "solve_batch",
    "solve_context",
    "solve_portfolio",
    "validate_members",
]
