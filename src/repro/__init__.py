"""repro — depth-optimal rectangular addressing of 2D qubit arrays.

A full reproduction of "Depth-Optimal Addressing of 2D Qubit Array with
1D Controls Based on Exact Binary Matrix Factorization" (Tan, Ping,
Cong; DATE 2024).  The public API re-exports the pieces a user needs to
go from a target pattern to a verified, depth-minimized AOD schedule:

    >>> from repro import BinaryMatrix, sap_solve
    >>> pattern = BinaryMatrix.from_strings(["110", "011", "111"])
    >>> result = sap_solve(pattern)
    >>> result.depth, result.proved_optimal
    (3, True)

``ROADMAP.md`` at the repository root describes the system, its
measured baselines and its open work.
"""

from repro.atoms import (
    AddressingSchedule,
    AddressingSimulator,
    AodConfiguration,
    AodConstraints,
    QubitArray,
    compile_addressing,
    legalize_schedule,
)
from repro.core import (
    BinaryMatrix,
    Partition,
    Rectangle,
    binary_rank_bounds,
    fooling_number,
    max_fooling_set,
    rank_lower_bound,
    reduce_matrix,
    trivial_upper_bound,
)
from repro.completion import (
    MaskedMatrix,
    masked_minimum_addressing,
    masked_row_packing,
)
from repro.cover import (
    boolean_rank,
    greedy_cover,
    lp_lower_bound,
    maximal_rectangles,
    minimum_cover,
)
from repro.corpus import build_corpus, run_scoreboard
from repro.sat import ProofLog, check_refutation
from repro.ftqc import (
    tensor_partition,
    tensor_rank_bounds,
    two_level_solve,
)
from repro.linalg import gf2_rank, real_rank
from repro.server import AsyncSolveEngine, SolveEvent
from repro.service import (
    PortfolioBudget,
    PortfolioResult,
    ResultCache,
    solve_batch,
    solve_portfolio,
)
from repro.solvers import (
    PackingOptions,
    SapOptions,
    SapResult,
    SapStatus,
    binary_rank,
    binary_rank_branch_bound,
    row_packing,
    row_packing_x,
    sap_solve,
    trivial_partition,
)

__version__ = "1.0.0"

__all__ = [
    "AddressingSchedule",
    "AddressingSimulator",
    "AodConfiguration",
    "AodConstraints",
    "AsyncSolveEngine",
    "BinaryMatrix",
    "MaskedMatrix",
    "PackingOptions",
    "Partition",
    "PortfolioBudget",
    "PortfolioResult",
    "QubitArray",
    "Rectangle",
    "ResultCache",
    "SapOptions",
    "SapResult",
    "SapStatus",
    "SolveEvent",
    "__version__",
    "binary_rank",
    "binary_rank_bounds",
    "binary_rank_branch_bound",
    "boolean_rank",
    "build_corpus",
    "run_scoreboard",
    "ProofLog",
    "check_refutation",
    "legalize_schedule",
    "lp_lower_bound",
    "maximal_rectangles",
    "compile_addressing",
    "greedy_cover",
    "minimum_cover",
    "fooling_number",
    "gf2_rank",
    "masked_minimum_addressing",
    "masked_row_packing",
    "max_fooling_set",
    "rank_lower_bound",
    "real_rank",
    "reduce_matrix",
    "row_packing",
    "row_packing_x",
    "sap_solve",
    "solve_batch",
    "solve_portfolio",
    "tensor_partition",
    "tensor_rank_bounds",
    "trivial_partition",
    "trivial_upper_bound",
    "two_level_solve",
]
