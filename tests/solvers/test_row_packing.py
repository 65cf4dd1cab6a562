"""Unit tests for the row packing heuristic (Algorithm 2)."""

import importlib

import pytest

from repro.completion.heuristic import masked_row_packing
from repro.completion.masked import MaskedMatrix
from repro.core.binary_matrix import BinaryMatrix
from repro.core.bounds import trivial_upper_bound
from repro.core.exceptions import SolverError
from repro.core.paper_matrices import FIGURE_3_GOOD_ORDER, figure_3
from repro.core.partition import Partition
from repro.cover.greedy import greedy_cover
from repro.solvers.registry import make_heuristic
from repro.solvers.row_packing import (
    PackingOptions,
    PackingTrace,
    pack_rows_once,
    row_packing,
)


class TestPackRowsOnce:
    def test_identity_order(self):
        m = figure_3()
        partition = pack_rows_once(m, range(5))
        partition.validate(m)
        assert partition.depth == 5

    def test_figure_3b_order(self):
        m = figure_3()
        partition = pack_rows_once(m, list(FIGURE_3_GOOD_ORDER))
        partition.validate(m)
        assert partition.depth == 4

    def test_duplicate_rows_grow_vertically(self):
        m = BinaryMatrix.from_strings(["110", "110", "110"])
        partition = pack_rows_once(m, range(3))
        assert partition.depth == 1

    def test_row_decomposition(self):
        # third row = row0 + row1 disjointly
        m = BinaryMatrix.from_strings(["1100", "0011", "1111"])
        partition = pack_rows_once(m, range(3))
        partition.validate(m)
        assert partition.depth == 2

    def test_basis_update_splits_rectangles(self):
        # big row first, then a sub-row: update shrinks the big rectangle
        m = BinaryMatrix.from_strings(["1111", "1100", "0011"])
        partition = pack_rows_once(m, range(3))
        partition.validate(m)
        assert partition.depth == 2

    def test_without_basis_update_worse_on_split_rows(self):
        m = BinaryMatrix.from_strings(["1111", "1100", "0011"])
        partition = pack_rows_once(m, range(3), basis_update=False)
        partition.validate(m)
        assert partition.depth == 3

    def test_zero_rows_skipped(self):
        m = BinaryMatrix.from_strings(["00", "11"])
        partition = pack_rows_once(m, range(2))
        partition.validate(m)
        assert partition.depth == 1

    def test_bad_order_rejected(self):
        with pytest.raises(SolverError):
            pack_rows_once(figure_3(), [0, 0, 1, 2, 3])

    def test_trace_records_events(self):
        trace = PackingTrace()
        m = figure_3()
        pack_rows_once(m, list(FIGURE_3_GOOD_ORDER), trace=trace)
        kinds = [kind for kind, _ in trace.events]
        assert "new_rectangle" in kinds
        assert "shrink" in kinds  # figure 3b relies on the basis update
        assert "grow" in kinds
        rendered = trace.render(m)
        assert "new rectangle" in rendered


class TestRowPacking:
    def test_always_valid(self, rng):
        for _ in range(30):
            rows, cols = rng.randint(1, 7), rng.randint(1, 7)
            m = BinaryMatrix(
                [rng.getrandbits(cols) for _ in range(rows)], cols
            )
            partition = row_packing(
                m, options=PackingOptions(trials=3, seed=rng.randint(0, 999))
            )
            partition.validate(m)

    def test_never_worse_than_trivial(self, rng):
        for _ in range(30):
            rows, cols = rng.randint(1, 7), rng.randint(1, 7)
            m = BinaryMatrix(
                [rng.getrandbits(cols) for _ in range(rows)], cols
            )
            partition = row_packing(
                m, options=PackingOptions(trials=1, seed=rng.randint(0, 999))
            )
            assert partition.depth <= trivial_upper_bound(m)

    def test_more_trials_never_hurt(self):
        m = figure_3()
        few = row_packing(m, options=PackingOptions(trials=1, seed=7))
        many = row_packing(m, options=PackingOptions(trials=50, seed=7))
        assert many.depth <= few.depth

    def test_figure_3_reaches_4_with_enough_trials(self):
        m = figure_3()
        partition = row_packing(m, options=PackingOptions(trials=64, seed=0))
        assert partition.depth == 4

    def test_orderings(self):
        m = figure_3()
        for ordering in ("given", "sparse_first", "shuffle"):
            partition = row_packing(
                m,
                options=PackingOptions(trials=2, seed=1, ordering=ordering),
            )
            partition.validate(m)

    def test_transpose_can_win(self):
        # 2 distinct columns, 4 distinct rows: transpose side packs better
        m = BinaryMatrix.from_strings(["10", "01", "11", "10"])
        partition = row_packing(m, options=PackingOptions(trials=4, seed=0))
        partition.validate(m)
        assert partition.depth <= 3

    def test_no_transpose_option(self):
        m = figure_3()
        partition = row_packing(
            m,
            options=PackingOptions(trials=2, seed=0, use_transpose=False),
        )
        partition.validate(m)

    def test_kwargs_form(self):
        partition = row_packing(figure_3(), trials=2, seed=3)
        partition.validate(figure_3())

    def test_options_and_kwargs_conflict(self):
        with pytest.raises(SolverError):
            row_packing(
                figure_3(), options=PackingOptions(trials=1), trials=2
            )

    def test_invalid_options(self):
        with pytest.raises(SolverError):
            PackingOptions(trials=0)
        with pytest.raises(SolverError):
            PackingOptions(ordering="bogus")

    def test_deterministic_given_seed(self):
        m = figure_3()
        a = row_packing(m, options=PackingOptions(trials=5, seed=42))
        b = row_packing(m, options=PackingOptions(trials=5, seed=42))
        assert a.depth == b.depth


class TestPassCount:
    @pytest.fixture
    def passes(self, monkeypatch):
        """Every row order ``row_packing`` runs a pass over."""
        # ``repro.solvers.row_packing`` names the function in the package.
        module = importlib.import_module("repro.solvers.row_packing")
        orders = []
        pack_once = module.pack_rows_once

        def spy(matrix, order, **kwargs):
            orders.append(list(order))
            return pack_once(matrix, order, **kwargs)

        monkeypatch.setattr(module, "pack_rows_once", spy)
        return orders

    def test_sorted_ablation_member_packs_once_per_side(self, passes):
        make_heuristic("packing_sorted:10")(figure_3(), 0)
        assert len(passes) == 2

    @pytest.mark.parametrize("ordering", ["given", "sparse_first"])
    def test_fixed_orderings_ignore_trials(self, passes, ordering):
        m = figure_3()
        once = row_packing(m, options=PackingOptions(trials=1, ordering=ordering))
        del passes[:]
        many = row_packing(m, options=PackingOptions(trials=10, ordering=ordering))
        assert len(passes) == 2
        assert many == once

    def test_shuffle_runs_every_trial(self, passes):
        row_packing(figure_3(), options=PackingOptions(trials=10, seed=0))
        assert len(passes) == 20


class TestOneValidationPerCall:
    """The passes do not validate their partitions; ``best_of_trials``
    validates the one it returns, once, with the caller's validator."""

    @pytest.fixture
    def validations(self, monkeypatch):
        """Every call of the three validators, by name."""
        calls = []

        def spy(name, check):
            def counted(*args):
                calls.append(name)
                check(*args)

            return counted

        monkeypatch.setattr(
            Partition, "validate", spy("partition", Partition.validate)
        )
        # The masked and cover heuristics bind their validators by name.
        for module_name, name in (
            ("repro.completion.heuristic", "validate_masked_partition"),
            ("repro.cover.greedy", "validate_cover"),
        ):
            module = importlib.import_module(module_name)
            monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
        return calls

    @pytest.mark.parametrize(
        "run,validator",
        [
            (lambda: make_heuristic("packing:4")(figure_3(), 0), "partition"),
            (lambda: make_heuristic("packing_x:4")(figure_3(), 0), "partition"),
            (lambda: make_heuristic("greedy:4")(figure_3(), 0), "partition"),
            (
                lambda: masked_row_packing(
                    MaskedMatrix.from_strings(["1*0", "011", "1*1"]),
                    options=PackingOptions(trials=4, seed=0),
                ),
                "validate_masked_partition",
            ),
            (
                lambda: greedy_cover(figure_3(), trials=4, seed=0),
                "validate_cover",
            ),
        ],
        ids=["packing:4", "packing_x:4", "greedy:4", "masked", "greedy_cover"],
    )
    def test_each_call_validates_once(self, validations, run, validator):
        run()
        assert validations == [validator]
