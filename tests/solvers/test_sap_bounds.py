"""SAP with its optional lower-bound strengthener, the fooling set.

SAP does not take the fractional-cover LP bound; that bound is checked
in ``tests/core/test_maximal_and_lp.py`` and reported by ablation A10.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchgen.random_matrices import random_matrix
from repro.core.paper_matrices import figure_1b
from repro.solvers.sap import SapOptions, sap_solve


class TestLpBoundInSap:
    def test_all_strengtheners_together(self):
        result = sap_solve(
            figure_1b(),
            options=SapOptions(
                trials=16,
                seed=1,
                use_fooling_bound=True,
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
            ),
        )
        assert plain.proved_optimal and strengthened.proved_optimal
        assert plain.depth == strengthened.depth
        assert strengthened.lower_bound >= plain.lower_bound
