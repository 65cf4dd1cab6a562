"""Corpus registry: registration, determinism, and suite deduplication."""

import pytest

import repro.benchgen.suite as suite
from repro.benchgen.suite import (
    TABLE1_SET_BUILDERS,
    flatten_suites,
)
from repro.core.binary_matrix import BinaryMatrix
from repro.core.exceptions import SolverError
from repro.corpus.registry import (
    PROFILES,
    CorpusInstance,
    build_corpus,
    family_names,
    get_family,
    instance_from_case,
    register_family,
    thin,
    validate_profile,
)

EXPECTED_FAMILIES = {
    "table1-rand",
    "table1-opt",
    "table1-gap",
    "paper",
    "fooling",
    "surface-code",
    "qldpc",
    "scale-sweep",
}


class TestRegistration:
    def test_builtin_families_registered(self):
        names = set(family_names())
        assert EXPECTED_FAMILIES <= names
        # The acceptance bar: at least five distinct corpus families.
        assert len(names) >= 5

    def test_duplicate_registration_rejected(self):
        with pytest.raises(SolverError, match="already registered"):
            register_family("paper", "imposter")(
                lambda profile, seed: []
            )

    def test_unknown_family_lookup(self):
        with pytest.raises(SolverError, match="unknown corpus family"):
            get_family("does-not-exist")

    def test_family_descriptions_nonempty(self):
        for name in family_names():
            assert get_family(name).description.strip()


class TestDeterminism:
    @pytest.mark.parametrize("profile", PROFILES[:2])  # smoke, quick
    def test_build_is_pure_in_profile_and_seed(self, profile):
        first = build_corpus(profile=profile, seed=2024)
        second = build_corpus(profile=profile, seed=2024)
        assert [inst.case_id for inst in first] == [
            inst.case_id for inst in second
        ]
        for a, b in zip(first, second):
            assert a.matrix.row_masks == b.matrix.row_masks
            assert a.known_rank == b.known_rank
            assert a.known_lower_bound == b.known_lower_bound

    def test_seed_reaches_random_families(self):
        a = build_corpus(["scale-sweep"], profile="smoke", seed=1)
        b = build_corpus(["scale-sweep"], profile="smoke", seed=2)
        assert any(
            x.matrix.row_masks != y.matrix.row_masks
            for x, y in zip(a, b)
        )

    def test_case_ids_unique_across_whole_corpus(self):
        corpus = build_corpus(profile="quick", seed=2024)
        ids = [inst.case_id for inst in corpus]
        assert len(ids) == len(set(ids))

    def test_instances_carry_their_family_stamp(self):
        for inst in build_corpus(profile="smoke", seed=2024):
            assert inst.family in EXPECTED_FAMILIES


class TestSuiteDeduplication:
    """table1-* corpus families and table1_suites share one enumeration."""

    @pytest.mark.slow
    @pytest.mark.parametrize("set_name", sorted(TABLE1_SET_BUILDERS))
    def test_full_profile_matches_paper_suites(self, set_name):
        builder = TABLE1_SET_BUILDERS[set_name]
        if set_name == "rand":
            suites = builder("paper", 2024, include_large=True)
        else:
            suites = builder("paper", 2024)
        expected = [make() for make in flatten_suites(suites)]
        corpus = build_corpus(
            [f"table1-{set_name}"], profile="full", seed=2024
        )
        assert [c.case_id for c in corpus] == [
            c.case_id for c in expected
        ]
        for inst, case in zip(corpus, expected):
            assert inst.matrix.row_masks == case.matrix.row_masks

    @pytest.mark.parametrize("set_name", sorted(TABLE1_SET_BUILDERS))
    def test_capped_profiles_are_subsequences(self, set_name):
        builder = TABLE1_SET_BUILDERS[set_name]
        if set_name == "rand":
            suites = builder("quick", 2024, include_large=False)
        else:
            suites = builder("quick", 2024)
        universe = [make().case_id for make in flatten_suites(suites)]
        smoke = build_corpus(
            [f"table1-{set_name}"], profile="smoke", seed=2024
        )
        assert len(smoke) <= 3
        positions = [universe.index(c.case_id) for c in smoke]
        assert positions == sorted(positions)

    @pytest.mark.parametrize(
        "set_name,generator",
        [
            ("rand", "random_matrix"),
            ("opt", "known_optimal_matrix"),
            ("gap", "gap_matrix"),
        ],
    )
    def test_capped_profiles_draw_only_the_kept_cases(
        self, monkeypatch, set_name, generator
    ):
        drawn = []
        draw = getattr(suite, generator)

        def counting(*args, **kwargs):
            drawn.append(args)
            return draw(*args, **kwargs)

        monkeypatch.setattr(suite, generator, counting)
        for profile, cap in (("smoke", 3), ("quick", 12)):
            drawn.clear()
            corpus = build_corpus(
                [f"table1-{set_name}"], profile=profile, seed=2024
            )
            assert len(corpus) == len(drawn) == cap


class TestThin:
    def test_uncapped_passthrough(self):
        items = list(range(7))
        assert thin(items, None) == items
        assert thin(items, 10) == items

    def test_capped_is_spread_subsequence(self):
        items = list(range(100))
        sample = thin(items, 5)
        assert len(sample) == 5
        assert sample[0] == 0
        assert sample == sorted(sample)
        # evenly spread, not a prefix
        assert sample[-1] >= 80


class TestCorpusInstance:
    def test_instance_from_case_maps_known_rank(self):
        from repro.benchgen.suite import BenchmarkCase

        case = BenchmarkCase(
            case_id="x",
            family="ignored",
            matrix=BinaryMatrix.identity(3),
            known_binary_rank=3,
        )
        inst = instance_from_case(case, family="f", seed=7)
        assert inst.family == "f"
        assert inst.known_rank == 3
        assert inst.lower_bound == 3
        assert inst.seed == 7

    def test_lower_bound_prefers_known_rank(self):
        inst = CorpusInstance(
            case_id="x",
            family="f",
            matrix=BinaryMatrix.identity(3),
            known_rank=3,
            known_lower_bound=2,
        )
        assert inst.lower_bound == 3

    def test_inconsistent_bounds_rejected(self):
        with pytest.raises(SolverError, match="lower bound"):
            CorpusInstance(
                case_id="x",
                family="f",
                matrix=BinaryMatrix.identity(3),
                known_rank=2,
                known_lower_bound=3,
            )

    def test_validate_profile(self):
        validate_profile("smoke")
        with pytest.raises(SolverError, match="profile"):
            validate_profile("huge")
