"""Property-based tests for solver invariants: heuristics return valid
partitions, SAP's answer lies in its bracket and matches branch and
bound, the fooling number bounds r_B from below, and r_B survives
transposition and is submultiplicative under tensor products."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.benchgen.random_matrices import random_matrix
from repro.core.bounds import (
    fooling_lower_bound,
    rank_lower_bound,
    trivial_upper_bound,
)
from repro.solvers.branch_bound import binary_rank_branch_bound
from repro.solvers.row_packing import PackingOptions, row_packing
from repro.solvers.sap import SapOptions, sap_solve
from repro.solvers.trivial import trivial_partition
from repro.utils.rng import spawn_seeds
from tests.conftest import binary_matrices, nonzero_binary_matrices


class TestHeuristicInvariants:
    @given(binary_matrices(), st.integers(0, 2**30))
    def test_row_packing_valid_and_bounded(self, m, seed):
        partition = row_packing(
            m, options=PackingOptions(trials=2, seed=seed)
        )
        partition.validate(m)
        assert partition.depth <= trivial_upper_bound(m)
        assert partition.depth >= rank_lower_bound(m) if not m.is_zero() else True

    @given(binary_matrices())
    def test_trivial_valid(self, m):
        partition = trivial_partition(m)
        partition.validate(m)


class TestExactInvariants:
    @given(binary_matrices(max_rows=5, max_cols=5), st.integers(0, 100))
    @settings(max_examples=30)
    def test_sap_bracket(self, m, seed):
        result = sap_solve(m, options=SapOptions(trials=4, seed=seed))
        result.partition.validate(m)
        assert result.proved_optimal
        assert rank_lower_bound(m) <= result.depth
        assert result.depth <= trivial_upper_bound(m)

    @given(binary_matrices(max_rows=4, max_cols=4))
    @settings(max_examples=30)
    def test_sap_matches_branch_bound(self, m):
        sap = sap_solve(m, options=SapOptions(trials=4, seed=0))
        bb = binary_rank_branch_bound(m)
        assert sap.proved_optimal
        assert sap.depth == bb.binary_rank

    @given(nonzero_binary_matrices(max_rows=4, max_cols=4))
    @settings(max_examples=30)
    def test_fooling_number_is_lower_bound(self, m):
        phi = fooling_lower_bound(m)
        rank = binary_rank_branch_bound(m).binary_rank
        assert phi <= rank

    @given(binary_matrices(max_rows=4, max_cols=4))
    @settings(max_examples=30)
    def test_transpose_preserves_binary_rank(self, m):
        a = binary_rank_branch_bound(m).binary_rank
        b = binary_rank_branch_bound(m.transpose()).binary_rank
        assert a == b

    @given(binary_matrices(max_rows=3, max_cols=3),
           binary_matrices(max_rows=2, max_cols=2))
    @settings(max_examples=20)
    def test_tensor_subadditive(self, a, b):
        """r_B(A (x) B) <= r_B(A) * r_B(B)."""
        ra = binary_rank_branch_bound(a).binary_rank
        rb = binary_rank_branch_bound(b).binary_rank
        rab = binary_rank_branch_bound(a.tensor(b)).binary_rank
        assert rab <= ra * rb


class TestFoolingFirstFormula:
    """SAP's default formula (a maximum fooling set raises the bound and
    leads the cell order) against the paper's (``use_fooling_bound=
    False``): the same depth and optimality under every descent and
    every option that shapes the oracle's formula."""

    VARIANTS = (
        {"descent": "linear"},
        {"descent": "binary"},
        {"descent": "assumption"},
        {"reduce": False},
        {"incremental": False},
    )

    @given(
        st.integers(5, 8),
        st.integers(5, 8),
        st.sampled_from((0.3, 0.5, 0.7)),
        st.integers(0, 2**16),
    )
    @settings(max_examples=25)
    def test_same_answers_as_the_paper_formula(self, rows, cols, occupancy,
                                               seed):
        # A weak packing start leaves the oracle a gap on about a quarter
        # of these matrices; from SAP's own packing the bounds close
        # almost all of them before any query.  Trying up to 16 matrices
        # of the drawn shape and occupancy until the default formula
        # queries keeps assume() from rejecting most examples (which
        # trips Hypothesis's filter_too_much health check).  The seeds
        # are derived from the drawn one, not consecutive, so nearby
        # draws do not all land on the same matrix.
        for seed in spawn_seeds(seed, 16):
            matrix = random_matrix(rows, cols, occupancy=occupancy, seed=seed)
            packing = PackingOptions(
                trials=1, seed=seed, basis_update=False, use_transpose=False
            )
            default = sap_solve(matrix, options=SapOptions(packing=packing))
            if default.queries:
                break
        assume(default.queries)
        for variant in self.VARIANTS:
            new, paper = (
                sap_solve(
                    matrix,
                    options=SapOptions(
                        packing=packing, use_fooling_bound=fooling, **variant
                    ),
                )
                for fooling in (True, False)
            )
            new.partition.validate(matrix)
            assert (new.depth, new.proved_optimal) == (
                paper.depth,
                paper.proved_optimal,
            )
