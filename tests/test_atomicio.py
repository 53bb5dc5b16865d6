"""Unit tests for :mod:`repro.util.atomicio` — the one sanctioned writer.

The IO001 lint rule forces every shared-artifact rename and append
through this module, so its guarantees carry the whole persistence
contract: replace-based writes are all-or-nothing (a failing serializer
leaves the old content and no tmp litter), appends are one ``os.write``
per record (no interior newlines allowed in), and JSON is canonicalized
with ``sort_keys`` so racing writers of the same payload produce
identical bytes.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.util import atomicio


class TestWriteReplace:
    def test_write_bytes_round_trip(self, tmp_path):
        target = tmp_path / "artifact.bin"
        atomicio.write_bytes(target, b"\x00\x01payload")
        assert target.read_bytes() == b"\x00\x01payload"

    def test_overwrite_replaces_content(self, tmp_path):
        target = tmp_path / "artifact.txt"
        atomicio.write_bytes(target, b"old")
        atomicio.write_bytes(target, b"new")
        assert target.read_bytes() == b"new"

    def test_no_tmp_litter_after_success(self, tmp_path):
        atomicio.write_bytes(tmp_path / "a.txt", b"x")
        assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]

    def test_failed_write_preserves_old_and_cleans_tmp(self, tmp_path):
        target = tmp_path / "index.json"
        atomicio.write_json(target, {"version": 1})
        with pytest.raises(TypeError):
            atomicio.write_json(target, {"bad": object()})
        assert json.loads(target.read_text()) == {"version": 1}
        assert [p.name for p in tmp_path.iterdir()] == ["index.json"]

    def test_write_json_bytes_are_canonical(self, tmp_path):
        # Two writers racing the same logical payload must produce
        # identical bytes whichever wins the replace.
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        atomicio.write_json(a, {"z": 1, "a": 2})
        atomicio.write_json(b, {"a": 2, "z": 1})
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().endswith("\n")

    def test_tmp_paths_are_per_writer_unique(self, tmp_path):
        target = tmp_path / "x"
        first = atomicio._tmp_path(target)
        second = atomicio._tmp_path(target)
        assert first != second
        assert first.parent == target.parent


class TestAppend:
    def test_append_line_accumulates(self, tmp_path):
        log = tmp_path / "log"
        atomicio.append_records(log, ["one"])
        atomicio.append_records(log, ["two"])
        assert log.read_text() == "one\ntwo\n"

    def test_append_records_is_one_write_per_line(self, tmp_path):
        log = tmp_path / "log"
        atomicio.append_records(log, ["a", "b", "c"])
        assert log.read_text() == "a\nb\nc\n"

    def test_interior_newline_is_rejected(self, tmp_path):
        # A record with an embedded newline would fake a torn write on
        # the reader side; refuse it at the API boundary.
        with pytest.raises(ValueError):
            atomicio.append_records(tmp_path / "log", ["one\ntwo"])

    def test_append_jsonl_lines_parse_and_sort_keys(self, tmp_path):
        log = tmp_path / "log.jsonl"
        atomicio.append_jsonl(log, [{"b": 1, "a": 2}, {"x": 3}])
        lines = log.read_text().splitlines()
        assert [json.loads(line) for line in lines] == [
            {"a": 2, "b": 1},
            {"x": 3},
        ]
        assert lines[0].index('"a"') < lines[0].index('"b"')

    def test_append_creates_parent_file_with_sane_mode(self, tmp_path):
        log = tmp_path / "log"
        atomicio.append_records(log, ["x"])
        assert os.access(log, os.R_OK)


class TestStringAndPathTargets:
    def test_accepts_str_paths(self, tmp_path):
        target = str(tmp_path / "s.json")
        atomicio.write_json(target, {"k": 1})
        assert json.loads(Path(target).read_text()) == {"k": 1}
