"""SolveOptions: the one validation, cache key and payload of a solve.

The pinned keys were recorded with the build before ``SolveOptions``
existed, when ``solve_batch`` and the engine each built their own
cache-key context: a change that moves one of them retires every
cached result of that configuration.  Budgets are keyed as floats, so
an integer budget shares the key of the float recorded then.
"""

import asyncio

import numpy as np
import pytest

from repro.core.exceptions import SolverError
from repro.core.paper_matrices import equation_2
from repro.server.engine import AsyncSolveEngine
from repro.service.batch import (
    BatchItem,
    SolveOptions,
    instance_seed,
    solve_batch,
    solve_context,
)
from repro.service.pool import solve_case, solve_payload
from repro.service.portfolio import result_from_dict

MEMBERS = ("trivial", "packing:4")

PER_MEMBER_2_KEY = (
    "18c8451e65d56cecea8e478b888264798e24281c0d480dc920cf0496ba01edb7"
)

PINNED_KEYS = {
    "per_member_int": ({"budget_per_member": 2}, PER_MEMBER_2_KEY),
    "per_member_int_as_float": ({"budget_per_member": 2.0}, PER_MEMBER_2_KEY),
    "per_member_float": (
        {"budget_per_member": 2.5},
        "f3916925aa09a43a43dc4c502ecdccc3fe45721af5387f55cdf36cd79582d686",
    ),
    "concurrent": (
        {"race": "concurrent"},
        "224b56fa84e21e0481cfa81a96184a956ae39ef533306e480e0b214d71be5851",
    ),
}

# solve_batch reads a bare per-instance budget as PortfolioBudget seconds
# (a float); the engine now keys it as a float too.
PER_INSTANCE_INT = {"budget_per_instance": 5}
BATCH_PER_INSTANCE_INT_KEY = (
    "4c04c6ba734deea4043b9ae9293729e906f116415661487a1dd921fbada115d9"
)


def _batch_key(options):
    [record] = solve_batch(
        [("eq2", equation_2())], members=MEMBERS, seed=7, **options
    )
    return record.key


def _engine_key(options):
    async def run():
        engine = AsyncSolveEngine(members=MEMBERS, seed=7)
        try:
            [record] = await engine.solve([("eq2", equation_2())], **options)
        finally:
            engine.close()
        return record.key

    return asyncio.run(run())


class TestPinnedKeys:
    @pytest.mark.parametrize("name", sorted(PINNED_KEYS))
    def test_solve_batch_keys_unchanged(self, name):
        options, key = PINNED_KEYS[name]
        assert _batch_key(options) == key

    @pytest.mark.parametrize("name", sorted(PINNED_KEYS))
    def test_engine_stream_keys_unchanged(self, name):
        options, key = PINNED_KEYS[name]
        assert _engine_key(options) == key

    def test_integer_per_instance_budget_keys_unchanged(self):
        assert _batch_key(PER_INSTANCE_INT) == BATCH_PER_INSTANCE_INT_KEY
        assert _engine_key(PER_INSTANCE_INT) == BATCH_PER_INSTANCE_INT_KEY


class TestValidation:
    def test_library_values_are_kept_as_given(self):
        options = SolveOptions(
            ["trivial"], np.int64(3), 5, 2, False, "concurrent"
        )
        assert options.members == ("trivial",)
        assert isinstance(options.seed, np.int64)
        for budget in (options.budget_per_instance, options.budget_per_member):
            assert isinstance(budget, float)
        item = BatchItem("a", equation_2(), options.members)
        assert options.context(item) == solve_context(
            ("trivial",), instance_seed(3, "a"), 5.0, 2.0, False, "concurrent"
        )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("members", ()),
            ("members", "trivial"),
            ("members", ("magic:3",)),
            ("members", ("branch_bound:7",)),
            ("members", ("sap:",)),
            ("members", ("trivial", "sap_paper:")),
            ("members", (1,)),
            ("seed", True),
            ("seed", 7.0),
            ("budget_per_instance", "10"),
            ("budget_per_member", -1),
            ("budget_per_instance", False),
            ("stop_when_optimal", "yes"),
            ("stop_when_optimal", 1),
            ("race", "warp"),
        ],
    )
    def test_bad_values_are_rejected(self, field, value):
        with pytest.raises(SolverError):
            SolveOptions(**{field: value})

    def test_engine_and_stream_check_every_option(self):
        with pytest.raises(SolverError):
            AsyncSolveEngine(members=MEMBERS, budget_per_member=-1)

        async def run():
            async with AsyncSolveEngine(members=MEMBERS) as engine:
                await engine.solve([("eq2", equation_2())], seed=True)

        with pytest.raises(SolverError):
            asyncio.run(run())


class TestSolveCase:
    def test_in_process_result_matches_the_worker_dict(self):
        options = SolveOptions(MEMBERS, 7)
        payload = options.payload(BatchItem("eq2", equation_2(), MEMBERS))
        result = solve_case(payload)
        from_worker = result_from_dict(solve_payload(payload))
        assert result.provenance(
            include_timing=False
        ) == from_worker.provenance(include_timing=False)
        # In process, the member partitions survive; the dict form
        # does not carry them.
        assert any(o.partition is not None for o in result.outcomes)
        assert all(o.partition is None for o in from_worker.outcomes)
