"""Tests for explicit JSON sanitization of exports (store entries are pickled: see test_store)."""

import json
import warnings

import pytest

from repro.core.dataset import NestedDataset
from repro.core.exporter import Exporter
from repro.core.serialization import JsonSanitizer, SerializationWarning


class TestJsonSanitizer:
    def test_clean_rows_pass_through(self):
        sanitizer = JsonSanitizer()
        row = {"text": "ok", "meta": {"n": 1, "tags": ["a", "b"], "score": 0.5}}
        assert json.loads(sanitizer.dumps(row)) == row
        assert not sanitizer.dirty

    def test_non_json_values_become_repr_and_are_recorded(self):
        sanitizer = JsonSanitizer()
        row = {"text": "ok", "meta": {"blob": {1, 2}, "when": complex(1, 2)}}
        payload = json.loads(sanitizer.dumps(row))
        assert payload["text"] == "ok"
        assert isinstance(payload["meta"]["blob"], str)
        assert sanitizer.dirty
        assert "meta.blob" in sanitizer.offending
        assert "meta.when" in sanitizer.offending

    def test_nested_list_paths(self):
        sanitizer = JsonSanitizer()
        sanitizer.dumps({"items": [1, {"x": object()}]})
        assert "items[].x" in sanitizer.offending

    def test_non_string_keys_are_stringified(self):
        sanitizer = JsonSanitizer()
        payload = json.loads(sanitizer.dumps({"outer": {(1, 2): "v"}}))
        assert payload == {"outer": {"(1, 2)": "v"}}
        assert sanitizer.dirty

    def test_warn_emits_once_and_names_keys(self):
        sanitizer = JsonSanitizer()
        sanitizer.dumps({"bad": object()})
        with pytest.warns(SerializationWarning, match="bad"):
            sanitizer.warn("test write")
        # offending state is consumed by the warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sanitizer.warn("test write")


class TestExporterSanitization:
    def test_export_warns_once_naming_offending_keys(self, tmp_path):
        dataset = NestedDataset.from_list(
            [
                {"text": "a", "meta": {"payload": {1, 2, 3}}},
                {"text": "b", "meta": {"payload": {4, 5}}},
            ]
        )
        path = tmp_path / "out.jsonl"
        with pytest.warns(SerializationWarning, match=r"meta\.payload") as caught:
            Exporter(path).export(dataset)
        assert len([w for w in caught if w.category is SerializationWarning]) == 1
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert all(isinstance(row["meta"]["payload"], str) for row in rows)

    def test_clean_export_does_not_warn(self, tmp_path):
        dataset = NestedDataset.from_list([{"text": "a", "meta": {"n": 1}}])
        with warnings.catch_warnings():
            warnings.simplefilter("error", SerializationWarning)
            Exporter(tmp_path / "out.jsonl").export(dataset)
