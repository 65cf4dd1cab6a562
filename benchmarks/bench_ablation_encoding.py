"""Ablation A2: SMT encoding choices.

Direct (one-hot) vs binary-label encodings, symmetry-breaking modes,
and incremental vs from-scratch oracle use, all measured on the same
instance needing a real UNSAT proof (Figure 1b: r_B = 5, rank bound 4).
SAP runs the paper's formula (``use_fooling_bound=False``): its
default proves Figure 1b by the fooling number, with no query.
"""

from __future__ import annotations

import pytest

from repro.core.paper_matrices import figure_1b
from repro.sat.solver import SolveStatus
from repro.smt.encoder import make_encoder
from repro.solvers.sap import SapOptions, sap_solve


@pytest.mark.parametrize("encoding", ["direct", "binary"])
def test_unsat_proof_by_encoding(benchmark, encoding):
    matrix = figure_1b()

    def prove():
        encoder = make_encoder(matrix, 4, encoding=encoding)
        return encoder.solve()

    status = benchmark(prove)
    assert status is SolveStatus.UNSAT
    benchmark.extra_info["encoding"] = encoding


@pytest.mark.parametrize("symmetry", ["none", "restricted", "precedence"])
def test_unsat_proof_by_symmetry(benchmark, symmetry):
    matrix = figure_1b()

    def prove():
        encoder = make_encoder(
            matrix, 4, encoding="direct", symmetry=symmetry
        )
        return encoder.solve()

    status = benchmark(prove)
    assert status is SolveStatus.UNSAT
    benchmark.extra_info["symmetry"] = symmetry


@pytest.mark.parametrize("incremental", [True, False])
def test_sap_incremental_vs_fresh(benchmark, incremental):
    matrix = figure_1b()

    def solve():
        return sap_solve(
            matrix,
            options=SapOptions(
                trials=8,
                seed=0,
                incremental=incremental,
                time_budget=30,
                use_fooling_bound=False,
            ),
        )

    result = benchmark(solve)
    assert result.proved_optimal and result.depth == 5
    benchmark.extra_info["incremental"] = incremental
    benchmark.extra_info["queries"] = len(result.queries)


@pytest.mark.parametrize("reduce", [True, False])
def test_sap_reduction_ablation(benchmark, reduce):
    """Empty/duplicate compression shrinks the encoding (matrix with
    duplicated rows and columns)."""
    from repro.core.binary_matrix import BinaryMatrix

    base = figure_1b()
    # Duplicate every row and column: same r_B, 4x the cells.
    doubled_rows = []
    for mask in base.row_masks:
        doubled_rows.extend([mask, mask])
    doubled = BinaryMatrix(doubled_rows, base.num_cols)
    doubled = doubled.tensor(BinaryMatrix.all_ones(1, 2))

    def solve():
        return sap_solve(
            doubled,
            options=SapOptions(
                trials=8,
                seed=0,
                reduce=reduce,
                time_budget=60,
                use_fooling_bound=False,
            ),
        )

    result = benchmark(solve)
    assert result.proved_optimal and result.depth == 5
    benchmark.extra_info["reduce"] = reduce
