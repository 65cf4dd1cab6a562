"""Unit tests for the command-line interface."""

import pytest

from repro.cli import main


@pytest.fixture
def pattern_file(tmp_path):
    path = tmp_path / "pattern.txt"
    path.write_text("110\n011\n111\n")
    return str(path)


@pytest.fixture
def masked_file(tmp_path):
    path = tmp_path / "masked.txt"
    path.write_text("*1*\n111\n*1*\n")
    return str(path)


class TestRank:
    def test_rank_output(self, pattern_file, capsys):
        assert main(["rank", pattern_file, "--trials", "4"]) == 0
        out = capsys.readouterr().out
        assert "binary rank:  3 (proven)" in out
        assert "real rank:    3" in out

    def test_rank_budget_zero_brackets(self, tmp_path, capsys):
        from repro.benchgen.gap import gap_matrix

        matrix = gap_matrix(10, 10, 4, seed=3)
        path = tmp_path / "hard.txt"
        path.write_text("\n".join(matrix.to_strings()) + "\n")
        assert main(["rank", str(path), "--budget", "0"]) == 0
        out = capsys.readouterr().out
        assert "binary rank:" in out


class TestSolve:
    def test_solve_exact(self, pattern_file, capsys):
        assert main(["solve", pattern_file, "--trials", "4"]) == 0
        out = capsys.readouterr().out
        assert "depth 3 (proven optimal)" in out

    def test_solve_heuristic_only(self, pattern_file, capsys):
        assert main(
            ["solve", pattern_file, "--heuristic-only", "--trials", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "depth" in out


class TestCompile:
    def test_compile_full_array(self, pattern_file, capsys):
        assert main(["compile", pattern_file, "--trials", "4"]) == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert "step 0" in out

    def test_compile_with_vacancies(self, masked_file, capsys):
        assert main(["compile", masked_file, "--trials", "8"]) == 0
        out = capsys.readouterr().out
        assert "depth 1" in out  # flood fill over vacant corners

    def test_theta_flag(self, pattern_file, capsys):
        assert main(
            ["compile", pattern_file, "--theta", "0.25", "--trials", "4"]
        ) == 0
        assert "Rz(0.25)" in capsys.readouterr().out


class TestSolveBatch:
    def test_batch_over_patterns(self, pattern_file, masked_file, tmp_path, capsys):
        other = tmp_path / "other.txt"
        other.write_text("10\n01\n")
        assert main(["solve-batch", pattern_file, str(other)]) == 0
        out = capsys.readouterr().out
        assert "portfolio batch — 2 instances" in out
        assert "winner" in out

    def test_batch_cache_and_json(self, pattern_file, tmp_path, capsys):
        import json

        cache_path = str(tmp_path / "cache")
        json_path = str(tmp_path / "out.json")
        assert main(
            ["solve-batch", pattern_file, "--cache-dir", cache_path,
             "--json", json_path]
        ) == 0
        assert "1 misses" in capsys.readouterr().out
        payload = json.loads(open(json_path).read())
        assert payload[0]["winner"]
        assert payload[0]["optimal"] is True
        # second run is served from the persisted cache
        assert main(
            ["solve-batch", pattern_file, "--cache-dir", cache_path]
        ) == 0
        out = capsys.readouterr().out
        assert "hit" in out
        assert "1 hits" in out

    def test_batch_cache_dir_migrates_a_single_file_cache(
        self, pattern_file, tmp_path, capsys
    ):
        import json

        from repro.server.shards import ShardedDiskTier

        # Build the single-file layout older builds wrote, from the
        # entries a first run stores.
        seed_dir = tmp_path / "seed"
        assert main(
            ["solve-batch", pattern_file, "--cache-dir", str(seed_dir)]
        ) == 0
        tier = ShardedDiskTier(seed_dir)
        entries = {key: tier.get(key) for key in tier.keys()}
        legacy = tmp_path / "cache.json"
        legacy.write_text(
            json.dumps(
                {"version": 1, "type": "portfolio_cache", "entries": entries}
            )
        )
        capsys.readouterr()

        assert main(
            ["solve-batch", pattern_file, "--cache-dir", str(legacy)]
        ) == 0
        assert "1 hits" in capsys.readouterr().out
        assert legacy.is_dir()  # resharded in place
        assert main(
            ["solve-batch", pattern_file, "--cache-dir", str(legacy)]
        ) == 0
        assert "1 hits" in capsys.readouterr().out

    def test_batch_torn_single_file_cache_reads_cold(
        self, pattern_file, tmp_path, capsys
    ):
        legacy = tmp_path / "cache.json"
        legacy.write_text('{"version": 1, "type": "portfolio_')
        assert main(
            ["solve-batch", pattern_file, "--cache-dir", str(legacy)]
        ) == 0
        assert "1 misses" in capsys.readouterr().out
        assert list(tmp_path.glob("cache.json.corrupt-*"))

    def test_batch_errors_exit_cleanly(self, pattern_file, capsys):
        # typo'd member spec, duplicate pattern, missing file: exit 2
        # with a one-line error, never a traceback
        assert main(["solve-batch", pattern_file, "--members", "magic:3"]) == 2
        assert "unknown kind 'magic'" in capsys.readouterr().err
        assert main(["solve-batch", pattern_file, pattern_file]) == 2
        assert "duplicate case ids" in capsys.readouterr().err
        assert main(["solve-batch", "/nonexistent/pattern.txt"]) == 2
        assert "No such file" in capsys.readouterr().err

    def test_batch_unwritable_json_exits_cleanly(self, pattern_file, capsys):
        assert main(
            ["solve-batch", pattern_file, "--json", "/proc/no/such/dir.json"]
        ) == 2
        assert "error:" in capsys.readouterr().err


class TestErrorHandler:
    def test_retry_after_hint_reaches_stderr(
        self, pattern_file, monkeypatch, capsys
    ):
        from repro.server import client

        def saturated(*args, **kwargs):
            raise client.DaemonError(
                "server saturated", code="saturated", retry_after=1.5
            )

        monkeypatch.setattr(client, "submit", saturated)
        assert main(["submit", pattern_file, "--socket", "/no.sock"]) == 2
        err = capsys.readouterr().err
        assert err == "error: server saturated (retry after 1.5s)\n"


class TestMisc:
    def test_examples_listing(self, capsys):
        assert main(["examples"]) == 0
        assert "quickstart" in capsys.readouterr().out

    def test_stdin_pattern(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("10\n01\n"))
        assert main(["rank", "-", "--trials", "2"]) == 0
        assert "binary rank:  2" in capsys.readouterr().out

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            main([])


class TestBounds:
    def test_bounds_output(self, pattern_file, capsys):
        assert main(["bounds", pattern_file]) == 0
        out = capsys.readouterr().out
        assert "rank bound:       3" in out
        assert "fooling bound:    2" in out
        assert "LP cover bound:" in out
        assert "bracket:" in out

    def test_bounds_large_skips_lp(self, tmp_path, capsys):
        from repro.benchgen.random_matrices import random_nonempty_matrix

        matrix = random_nonempty_matrix(14, 14, 0.3, seed=1)
        path = tmp_path / "large.txt"
        path.write_text("\n".join(matrix.to_strings()) + "\n")
        assert main(["bounds", str(path)]) == 0
        out = capsys.readouterr().out
        assert "skipped (matrix too large)" in out


class TestAudit:
    def test_audit_verifies_certificate(self, tmp_path, capsys):
        # Figure 1b: real rank 4 < r_B 5, so the optimality certificate
        # requires an actual UNSAT proof.
        from repro.core.paper_matrices import figure_1b

        path = tmp_path / "fig1b.txt"
        path.write_text("\n".join(figure_1b().to_strings()) + "\n")
        assert main(["audit", str(path), "--trials", "8"]) == 0
        out = capsys.readouterr().out
        assert "binary rank: 5" in out
        assert "UNSAT certificate verified" in out

    def test_audit_eq3_shortcut(self, pattern_file, capsys):
        # Eq. 2's matrix: packing reaches the rank bound, no proof step.
        assert main(["audit", pattern_file, "--trials", "8"]) == 0
        out = capsys.readouterr().out
        assert "certified by Eq. 3 alone" in out

    def test_audit_rank_certified_by_bound(self, tmp_path, capsys):
        path = tmp_path / "id.txt"
        path.write_text("10\n01\n")
        assert main(["audit", str(path), "--trials", "4"]) == 0
        out = capsys.readouterr().out
        assert "Eq. 3" in out


class TestLegalize:
    def test_legalize_reports_inflation(self, pattern_file, capsys):
        assert main(
            [
                "legalize", pattern_file,
                "--max-row-tones", "1", "--max-col-tones", "1",
                "--trials", "4",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "ideal depth:" in out
        assert "legal depth:     7" in out  # one step per 1-cell
        assert "OK" in out

    def test_legalize_unconstrained_identity(self, pattern_file, capsys):
        assert main(["legalize", pattern_file, "--trials", "4"]) == 0
        out = capsys.readouterr().out
        assert "(1.00x)" in out


class TestRender:
    def test_render_writes_svg(self, pattern_file, tmp_path, capsys):
        out_path = tmp_path / "figure.svg"
        assert main(
            ["render", pattern_file, str(out_path), "--trials", "4"]
        ) == 0
        text = out_path.read_text()
        assert text.startswith("<svg")
        assert "depth-3 partition (optimal)" in capsys.readouterr().out
