"""SAP with the optional lower-bound strengtheners (fooling / LP)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchgen.random_matrices import random_matrix
from repro.core.paper_matrices import equation_2, figure_1b
from repro.solvers.sap import SapOptions, sap_solve


class TestLpBoundInSap:
    def test_lp_bound_does_not_change_the_answer(self):
        queries = []
        for matrix in (equation_2(), figure_1b()):
            plain = sap_solve(
                matrix,
                options=SapOptions(trials=16, seed=1, use_fooling_bound=False),
            )
            queries.extend(plain.queries)
            with_lp = sap_solve(
                matrix,
                options=SapOptions(trials=16, seed=1, use_lp_bound=True),
            )
            assert plain.depth == with_lp.depth
            assert plain.proved_optimal and with_lp.proved_optimal
        assert queries

    def test_lp_bound_recorded_in_lower_bound(self):
        result = sap_solve(
            figure_1b(),
            options=SapOptions(trials=16, seed=1, use_lp_bound=True),
        )
        # Figure 1b: rank 4, fooling 5, LP <= cover = 5.  The recorded
        # lower bound must dominate the plain rank bound.
        assert result.lower_bound >= 4

    def test_all_strengtheners_together(self):
        result = sap_solve(
            figure_1b(),
            options=SapOptions(
                trials=16,
                seed=1,
                use_fooling_bound=True,
                use_lp_bound=True,
            ),
        )
        assert result.proved_optimal
        assert result.depth == 5
        # Fooling number of Figure 1b is 5: the bound meets the optimum,
        # so no oracle query was needed at all.
        assert result.lower_bound == 5
        assert not result.queries

    @given(st.integers(min_value=0, max_value=2000))
    @settings(max_examples=20, deadline=None)
    def test_strengthened_bounds_agree_with_plain(self, seed):
        matrix = random_matrix(5, 5, occupancy=0.5, seed=seed)
        plain = sap_solve(
            matrix,
            options=SapOptions(trials=8, seed=seed, use_fooling_bound=False),
        )
        strengthened = sap_solve(
            matrix,
            options=SapOptions(
                trials=8,
                seed=seed,
                use_fooling_bound=True,
                use_lp_bound=True,
            ),
        )
        assert plain.proved_optimal and strengthened.proved_optimal
        assert plain.depth == strengthened.depth
        assert strengthened.lower_bound >= plain.lower_bound
