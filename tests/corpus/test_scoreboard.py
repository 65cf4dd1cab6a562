"""Scoreboard engine: scoring, tallies, caching, and serialization."""

from repro.corpus.registry import build_corpus
from repro.corpus.scoreboard import (
    ScoreboardReport,
    report_from_dict,
    run_scoreboard,
)
from repro.service.cache import ResultCache
from repro.service.schema import SOLVER_SCHEMA_VERSION

MEMBERS = ("trivial", "packing:4")


def smoke_report(**overrides) -> ScoreboardReport:
    options = dict(profile="smoke", seed=2024, members=MEMBERS)
    options.update(overrides)
    return run_scoreboard(**options)


class TestScoring:
    def test_covers_whole_corpus(self):
        report = smoke_report()
        corpus = build_corpus(profile="smoke", seed=2024)
        assert [row.case_id for row in report.rows] == [
            inst.case_id for inst in corpus
        ]
        # The acceptance bar: at least five named families scored.
        assert len(set(row.family for row in report.rows)) >= 5

    def test_ratios_at_least_one_and_bounds_respected(self):
        report = smoke_report()
        assert report.lower_bound_violations() == []
        for row in report.rows:
            assert row.ratio >= 1.0
            assert row.depth >= row.best_known
            assert row.depth >= row.lower_bound

    def test_known_rank_instances_score_exactly(self):
        """Ground-truth instances measure the solver against the paper's
        published ranks, not against the run's own output."""
        report = smoke_report()
        row = report.row("paper-figure1b")
        assert row.best_known == 5
        row = report.row("fool-identity-4")
        assert row.best_known == 4
        assert row.lower_bound == 4

    def test_tally_matches_engine_metrics_shape(self):
        """The scoreboard emits the exact wire shape the daemon/gateway
        ``metrics`` op exposes — one vocabulary for both surfaces."""
        report = smoke_report()
        payload = report.tally.as_dict()
        assert set(payload) == {"solved", "wins", "win_rates"}
        assert payload["solved"] == len(report.rows)
        assert sum(payload["wins"].values()) == payload["solved"]
        assert abs(sum(payload["win_rates"].values()) - 1.0) < 1e-9

    def test_family_summary_counts(self):
        report = smoke_report()
        summary = report.family_summary()
        assert sum(e["instances"] for e in summary.values()) == len(
            report.rows
        )
        for entry in summary.values():
            assert 1.0 <= entry["mean_ratio"] <= entry["max_ratio"]

    def test_family_subset(self):
        report = smoke_report(families=["paper", "fooling"])
        assert report.families == ("paper", "fooling")
        assert set(row.family for row in report.rows) == {
            "paper",
            "fooling",
        }


class TestCaching:
    def test_cache_hits_do_not_inflate_the_tally(self, tmp_path):
        cache = ResultCache.sharded(tmp_path / "cache")
        first = smoke_report(cache=cache)
        assert first.tally.solved == len(first.rows)
        second = smoke_report(cache=cache)
        assert all(row.from_cache for row in second.rows)
        assert second.tally.solved == 0
        assert [row.depth for row in second.rows] == [
            row.depth for row in first.rows
        ]


class TestSerialization:
    def test_round_trip(self):
        report = smoke_report()
        rebuilt = report_from_dict(report.as_dict())
        assert rebuilt.profile == report.profile
        assert rebuilt.seed == report.seed
        assert rebuilt.members == report.members
        assert rebuilt.schema_version == SOLVER_SCHEMA_VERSION
        assert [r.as_dict() for r in rebuilt.rows] == [
            r.as_dict() for r in report.rows
        ]
        assert rebuilt.tally.as_dict() == report.tally.as_dict()

    def test_deterministic_slice_is_run_independent(self):
        """Two fresh runs agree on everything but wall-clock — the
        property the byte-identical baseline contract rests on."""
        a = smoke_report().as_dict(include_timing=False)
        b = smoke_report().as_dict(include_timing=False)
        assert a == b

    def test_timing_fields_only_in_timed_payloads(self):
        report = smoke_report()
        timed = report.as_dict()
        bare = report.as_dict(include_timing=False)
        assert "wall_seconds" in timed and "family_summary" in timed
        assert "wall_seconds" not in bare
        assert all("wall_seconds" not in row for row in bare["rows"])
