"""Tests for explicit JSON sanitization of exports (store entries are pickled: see test_store)."""

import gzip
import hashlib
import json
import random
import warnings
from pathlib import Path

import pytest

from repro.core.dataset import NestedDataset
from repro.core.exporter import Exporter
from repro.core.faults import QuarantineWriter
from repro.core.sample import Fields, HashKeys
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

    def test_one_encoder_per_kwargs_set_still_sanitises(self, monkeypatch):
        built = []

        class CountingEncoder(json.JSONEncoder):
            def __init__(self, **kwargs):
                built.append(kwargs)
                super().__init__(**kwargs)

        rows = [{"text": "é", "n": index} for index in range(3)]
        expected = [
            (json.dumps(row, ensure_ascii=False), json.dumps(row, indent=2)) for row in rows
        ]
        monkeypatch.setattr(json, "JSONEncoder", CountingEncoder)
        sanitizer = JsonSanitizer()
        for row, (compact, indented) in zip(rows, expected):
            assert sanitizer.dumps(row, ensure_ascii=False) == compact
            assert sanitizer.dumps(row, indent=2) == indented
        # the cached encoder meets a dirty row and still falls back
        payload = json.loads(sanitizer.dumps({"text": "x", "blob": {1, 2}}, ensure_ascii=False))
        assert payload == {"text": "x", "blob": "{1, 2}"}
        assert sanitizer.offending == {"blob": "set"}
        assert built == [{"ensure_ascii": False}, {"indent": 2}]

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


def _byte_rows() -> list[dict]:
    """Rows with unicode, nesting, stats and every internal column."""
    rng = random.Random(7)
    words = ["Grüße", "世界", "naïve", "\"quoted\"", "tab\there", "emoji 🙂", "plain"]
    rows = []
    for index in range(23):
        text = " ".join(rng.choice(words) for _ in range(rng.randint(0, 9)))
        rows.append({
            "text": text + ("\n" if index % 5 == 0 else ""),
            "meta": {"id": index, "score": rng.random(), "tags": words[: index % 4]},
            Fields.stats: {"text_len": len(text), "ratio": index / 7},
            HashKeys.hash: f"{index:08x}",
            Fields.context: {"words": text.split()},
        })
    return rows


def _digest(paths) -> str:
    """sha256 of the decompressed bytes of every path, in order."""
    digest = hashlib.sha256()
    for path in paths:
        data = Path(path).read_bytes()
        digest.update(gzip.decompress(data) if str(path).endswith(".gz") else data)
    return digest.hexdigest()


def export_digests(root: Path) -> dict[str, str]:
    """Each export case's digest; the table below was made by the row-copying writer."""
    rows = _byte_rows()
    dataset = NestedDataset.from_list(rows)
    digests = {
        "jsonl": _digest([Exporter(root / "a.jsonl").export(dataset)]),
        "jsonl-stats": _digest([Exporter(root / "b.jsonl", keep_stats=True).export(dataset)]),
        "json-array": _digest([Exporter(root / "c.json").export(dataset)]),
        "json-array-stats": _digest([Exporter(root / "d.json", keep_stats=True).export(dataset)]),
        "txt": _digest([Exporter(root / "e.txt").export(dataset)]),
        "stream-rows": _digest(Exporter(root / "f.jsonl").export_stream(iter(rows))),
        "sharded-gz": _digest(
            Exporter(root / "g.jsonl.gz", shard_rows=7).export_stream(iter(dataset))
        ),
        "empty": _digest([Exporter(root / "h.jsonl").export(NestedDataset.from_list([]))]),
    }
    writer = QuarantineWriter(root / "quarantine", rows_per_file=10)
    writer.write_rows(rows, "words_num_filter", ValueError("poison"), shard_id="shard-3")
    writer.close()
    digests["quarantine"] = _digest(writer.paths)
    return digests


#: made by the writer that copied every row and built one encoder per row;
#: "stream-rows" and "sharded-gz" pass rows that still hold internal fields
PRE_CHANGE_DIGESTS = {
    "empty": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "json-array": "c2ad1bfc326f7abe85b6ef3f721d407a44fb379207390dc6d974afe142f3f01f",
    "json-array-stats": "2599783b9e93989e0b0e19c3abaad47f6a702c707df5d1c7982bac11770f8857",
    "jsonl": "095bb443fd7dfe9e1dab39b45effbb3504043ead170df77752bd72087caebfcf",
    "jsonl-stats": "c8349e1ebbfb1fdb89fb2e04da9c446e0ff9352a2ff960f726a7bcbbe29c3752",
    "quarantine": "aa6a6e792512d67ec5212d67f0c625874bfaa3dd7ca093c6f4b490503fd22290",
    "sharded-gz": "095bb443fd7dfe9e1dab39b45effbb3504043ead170df77752bd72087caebfcf",
    "stream-rows": "095bb443fd7dfe9e1dab39b45effbb3504043ead170df77752bd72087caebfcf",
    "txt": "746a9a14aa499022544046e9482bf9fe508d63f3ea09caf18729a47bfd30af08",
}
#: the same, for the rows with a set in one ``meta`` cell
NON_JSON_DIGEST = "fb1b88642e38b7075ab12b81dfc09f8e012465d75e5939efbec5f5c839118093"


class TestExportBytes:
    """The exported bytes of every format equal the row-copying writer's."""

    def test_every_format_matches_the_pre_change_bytes(self, tmp_path):
        assert export_digests(tmp_path) == PRE_CHANGE_DIGESTS

    def test_a_non_json_cell_still_warns_once_with_its_key_path(self, tmp_path):
        rows = _byte_rows()
        rows[4]["meta"]["payload"] = {3, 1, 2}
        path = tmp_path / "out.jsonl"
        with pytest.warns(SerializationWarning, match=r"meta\.payload") as caught:
            Exporter(path).export(NestedDataset.from_list(rows))
        assert len([w for w in caught if w.category is SerializationWarning]) == 1
        lines = path.read_text(encoding="utf-8").splitlines()
        assert json.loads(lines[4])["meta"]["payload"] == "{1, 2, 3}"
        assert _digest([path]) == NON_JSON_DIGEST
