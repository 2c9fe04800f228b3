"""Tests for the benchmark-history migration rules of :func:`repro.bench.load_history`."""

from __future__ import annotations

import json

import pytest

from repro.bench import load_history


class TestLoadHistory:
    def test_missing_file_starts_empty(self, tmp_path):
        assert load_history(tmp_path / "absent.json") == []

    def test_current_history_shape_passes_through(self, tmp_path):
        points = [{"recorded_at": "2026-01-01T00:00:00+00:00"}, {"recorded_at": "b"}]
        path = tmp_path / "bench.json"
        path.write_text(
            json.dumps({"benchmark": "dispatch-hot-path", "history": points}),
            encoding="utf-8",
        )
        assert load_history(path) == points

    def test_legacy_single_point_is_migrated(self, tmp_path):
        # A pre-history file is one benchmark point at the top level; it must
        # become the first history entry (minus the document-level tag), not
        # crash or get overwritten.
        legacy = {
            "benchmark": "dispatch-hot-path",
            "recorded_at": "2025-12-31T00:00:00+00:00",
            "single_run": {"speedup": 3.1},
        }
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(legacy), encoding="utf-8")
        history = load_history(path)
        assert history == [
            {
                "recorded_at": "2025-12-31T00:00:00+00:00",
                "single_run": {"speedup": 3.1},
            }
        ]
        # Migration must not mutate the file itself (only a bench run writes).
        assert json.loads(path.read_text(encoding="utf-8")) == legacy

    def test_corrupt_json_raises_instead_of_overwriting(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_history(path)

    def test_non_dict_document_raises(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text("[1, 2, 3]", encoding="utf-8")
        with pytest.raises(ValueError, match="top-level list"):
            load_history(path)

    def test_non_list_history_raises(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({"history": {"oops": 1}}), encoding="utf-8")
        with pytest.raises(ValueError, match="non-list 'history'"):
            load_history(path)
