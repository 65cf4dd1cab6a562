"""Unit tests for the atomic-write and lock-file helpers."""

import json
import os
import stat
from pathlib import Path

import pytest

from repro.utils.fileio import atomic_write_json, locked_file, try_locked_file

PAYLOAD = {"b": [1, 2.5, None], "a": {"z": True, "y": "café"}}


class TestAtomicWriteJson:
    @pytest.mark.parametrize("sort_keys", [False, True])
    def test_default_bytes_match_indented_dump(self, tmp_path, sort_keys):
        reference = tmp_path / "reference.json"
        with open(reference, "w") as stream:
            json.dump(PAYLOAD, stream, indent=2, sort_keys=sort_keys)
            stream.write("\n")
        written = tmp_path / "written.json"
        atomic_write_json(written, PAYLOAD, sort_keys=sort_keys)
        assert written.read_bytes() == reference.read_bytes()

    def test_compact_output_round_trips(self, tmp_path):
        path = tmp_path / "compact.json"
        atomic_write_json(path, PAYLOAD, sort_keys=True, indent=None)
        text = path.read_text()
        assert text.count("\n") == 1 and text.endswith("\n")
        assert json.loads(text) == PAYLOAD


class TestFileMode:
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_new_file_gets_the_umask_mode(self, tmp_path, umask, mode):
        previous = os.umask(umask)
        try:
            atomic_write_json(tmp_path / "out.json", PAYLOAD)
        finally:
            os.umask(previous)
        assert stat.S_IMODE((tmp_path / "out.json").stat().st_mode) == mode
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


class TestParentDirectory:
    def test_missing_nested_parent_is_created(self, tmp_path):
        with locked_file(tmp_path / "a" / "b" / "x.lock"):
            pass
        with try_locked_file(tmp_path / "c" / "d" / "y.lock") as acquired:
            assert acquired
        target = tmp_path / "e" / "f" / "z.json"
        atomic_write_json(target, PAYLOAD)
        assert (tmp_path / "a" / "b" / "x.lock").is_file()
        assert (tmp_path / "c" / "d" / "y.lock").is_file()
        assert json.loads(target.read_text()) == PAYLOAD

    def test_present_parent_is_not_made(self, tmp_path, monkeypatch):
        made = []
        mkdir = Path.mkdir

        def spy(self, *args, **kwargs):
            made.append(self)
            return mkdir(self, *args, **kwargs)

        monkeypatch.setattr(Path, "mkdir", spy)
        with locked_file(tmp_path / "x.lock"):
            pass
        with try_locked_file(tmp_path / "y.lock") as acquired:
            assert acquired
        atomic_write_json(tmp_path / "z.json", PAYLOAD)
        assert made == []
