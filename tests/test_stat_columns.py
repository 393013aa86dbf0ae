"""A Filter's stats are columns; the ``__stats__`` dict exists only where a row is read.

A batched filter writes each stat as a flat column ``__stats__.<key>``
(:func:`repro.core.batch.write_stat`), the per-row shim folds a row's stats
into a fresh dict for ``compute_stats`` and unfolds what it wrote, and the
edges — the export with ``keep_stats``, the quarantine file, a tracer's
dropped rows, the row view — fold the input's own ``__stats__`` keys first,
then the stat columns in the order the ops wrote them.

The digests below were made by the engine that edited one ``__stats__``
dict per row in place, over input rows that already carry stats, as when an
export made with ``keep_stats`` is read again: the stat-column engine
exports the same bytes.
"""

import gzip
import hashlib
import json

import pytest

from repro.core.base_op import Filter
from repro.core.batch import read_stat, write_stat
from repro.core.dataset import NestedDataset
from repro.core.executor import Executor
from repro.core.sample import Fields, fold_stats, stat_column, stats_folder
from repro.ops import load_ops
from repro.testing import FaultPlan

PROCESS = [
    {"whitespace_normalization_mapper": {}},
    {"text_length_filter": {"min_len": 10}},
    {"words_num_filter": {"min_num": 3}},
    {"language_id_score_filter": {"min_score": 0.0}},
    {"digit_ratio_filter": {"max_ratio": 0.5}},
    {"alphanumeric_filter": {"min_ratio": 0.2}},
    {"document_deduplicator": {}},
    {"special_characters_filter": {"max_ratio": 0.5}},
]

_WORDS = "river village engine record garden letter market window bridge harvest".split()


def carried_rows() -> list[dict]:
    """Rows with the filters' stat (text_len here set to a value no filter
    computes), rows without one, and rows with extra keys; ``__stats__`` is
    the last key, where an export with ``keep_stats`` writes it."""
    rows = []
    for index in range(40):
        text = " ".join(_WORDS[(index + k) % len(_WORDS)] for k in range(3 + index % 9))
        row = {"id": index, "text": f"  {text} {index}  ", "meta": {"n": index}}
        kind = index % 4
        if kind == 0:
            row[Fields.stats] = {"text_len": 999, "num_words": 50}
        elif kind == 1:
            row[Fields.stats] = {"quality": 0.5, "text_len": 1000}
        elif kind == 2:
            row[Fields.stats] = {"source_score": [index]}
        rows.append(row)
    rows.append(dict(rows[5], id=99))  # a duplicate
    return rows


RUNS = {
    "memory": {},
    "memory-fused": {"op_fusion": True},
    "streaming": {"max_shard_rows": 6},
}


def export_digests(tmp_path) -> dict[str, str]:
    """The sha256 of each run's export, keyed ``<run>-<keep_stats>``."""
    input_path = tmp_path / "in.jsonl"
    input_path.write_text(
        "".join(json.dumps(row) + "\n" for row in carried_rows()), encoding="utf-8"
    )
    digests = {}
    for run, options in RUNS.items():
        for keep in (False, True):
            tag = f"{run}-{keep}"
            config = {
                "dataset_path": str(input_path),
                "export_path": str(tmp_path / f"{tag}.jsonl"),
                "work_dir": str(tmp_path / f"work-{tag}"),
                "process": PROCESS,
                "keep_stats_in_export": keep,
                **options,
            }
            executor = Executor(config)
            executor.run_streaming() if run == "streaming" else executor.run()
            data = (tmp_path / f"{tag}.jsonl").read_bytes()
            digests[tag] = hashlib.sha256(data).hexdigest()
    return digests


#: made by the engine that edited each row's ``__stats__`` dict in place
PARENT_DIGESTS = {
    "memory-False": "697c2512a9672fcbd3059af3b27a2a433bf6f73b70d0d346104f0fe1becbf9fc",
    "memory-True": "51eb0cd4ff3dafa1b6f07d6661d760097c9dadb3187a97632eabcd5be7ada0cf",
    "memory-fused-False": "697c2512a9672fcbd3059af3b27a2a433bf6f73b70d0d346104f0fe1becbf9fc",
    "memory-fused-True": "5cb4a8218e390868152aa02dc3bed2062d4f6ad14aba76cacdf7fc0b43ebde8e",
    "streaming-False": "697c2512a9672fcbd3059af3b27a2a433bf6f73b70d0d346104f0fe1becbf9fc",
    "streaming-True": "51eb0cd4ff3dafa1b6f07d6661d760097c9dadb3187a97632eabcd5be7ada0cf",
}


def test_input_that_carries_stats_exports_the_same_bytes(tmp_path):
    assert export_digests(tmp_path) == PARENT_DIGESTS


def test_a_filter_keeps_a_stat_the_row_carries(tmp_path):
    export_digests(tmp_path)
    rows = [json.loads(line) for line in (tmp_path / "memory-True.jsonl").read_text().splitlines()]
    carried = {row["id"]: row[Fields.stats] for row in carried_rows() if Fields.stats in row}
    assert rows
    for row in rows:
        stats = row[Fields.stats]
        own = carried.get(row["id"], {})
        # the row's own keys first, in its order, then the filters' in op order
        assert list(stats)[: len(own)] == list(own)
        assert stats["text_len"] == own.get("text_len", len(row["text"]))
        assert stats["num_words"] == own.get("num_words", stats["num_words"])
        assert list(stats)[len(own):] == [
            key for key in ("text_len", "num_words", "lang", "lang_score", "digit_ratio",
                            "alnum_ratio", "special_char_ratio") if key not in own
        ]


def edge_digests(tmp_path) -> dict[str, str]:
    """The sha256 of what rows without stats that reach no filter leave at the
    edges: each run's export with ``keep_stats`` and its quarantine file (a
    mapper fails on the rows that hold "garden"), keyed ``<run>-export`` /
    ``<run>-quarantine``."""
    rows = [{k: v for k, v in row.items() if k != Fields.stats} for row in carried_rows()]
    input_path = tmp_path / "in.jsonl"
    input_path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    digests = {}
    for run, options in RUNS.items():
        config = {
            "dataset_path": str(input_path),
            "export_path": str(tmp_path / f"{run}.jsonl"),
            "work_dir": str(tmp_path / f"work-{run}"),
            "process": [{"whitespace_normalization_mapper": {}}, {"clean_links_mapper": {}}],
            "keep_stats_in_export": True,
            "on_error": "quarantine",
            **options,
        }
        executor = Executor(config)
        FaultPlan().inject("clean_links_mapper", match="garden").install(executor.ops)
        executor.run_streaming() if run == "streaming" else executor.run()
        quarantine = executor.last_report["faults"]["quarantine_paths"]
        for name, data in (
            ("export", (tmp_path / f"{run}.jsonl").read_bytes()),
            ("quarantine", gzip.decompress(open(quarantine[0], "rb").read())),
        ):
            digests[f"{run}-{name}"] = hashlib.sha256(data).hexdigest()
    return digests


#: made by the engine whose formatter gave every row read from a file an
#: empty ``__stats__`` dict
PARENT_EDGE_DIGESTS = {
    "memory-export": "dba28726321782d9fb14319b9a1cc67ee47d4b7c33af6d15a5ba806622e98b4d",
    "memory-quarantine": "aca6020c15f40bb00a7892ca3223ef71efeda801dbb53d302380b18c121c846f",
    "memory-fused-export": "dba28726321782d9fb14319b9a1cc67ee47d4b7c33af6d15a5ba806622e98b4d",
    "memory-fused-quarantine": "aca6020c15f40bb00a7892ca3223ef71efeda801dbb53d302380b18c121c846f",
    "streaming-export": "dba28726321782d9fb14319b9a1cc67ee47d4b7c33af6d15a5ba806622e98b4d",
    "streaming-quarantine": "ab08cd1a890073a89ce2e2bb5280fab206078471993d8412be0952fb37228c3d",
}


def test_rows_that_reach_no_filter_leave_the_same_bytes(tmp_path):
    assert edge_digests(tmp_path) == PARENT_EDGE_DIGESTS


class StampFilter(Filter):
    """A per-row filter that writes a stat, a new ``meta`` and a new field."""

    def compute_stats(self, sample, context=False):
        sample[Fields.stats]["chars"] = len(sample[Fields.text])
        sample[Fields.meta] = dict(sample[Fields.meta], seen=True)
        sample["checked"] = True
        return sample

    def process(self, sample):
        return sample[Fields.stats]["chars"] > 1


class TestPerRowShim:
    def in_place(self, op, batch):
        """The stats each row of ``batch`` gets when ``compute_stats`` edits a
        copy of its ``__stats__`` dict in place."""
        return [
            op.compute_stats({**row, Fields.stats: dict(row.get(Fields.stats) or {})})
            for row in NestedDataset(dict(batch)).to_list()
        ]

    @pytest.mark.parametrize("entry", ["stats_and_flags", "compute_stats_batched"])
    def test_stats_fold_in_the_order_the_row_gained_them(self, entry):
        op = load_ops([{"language_id_score_filter": {"min_score": 0.0}}])[0]
        carried = [{"lang_score": 0.25}, None, {"other": 1, "lang": "xx"}, {}]
        batch = {
            "text": ["the river runs by the mill", "a village market", "der Garten", "x"],
            Fields.stats: carried,
        }
        expected = self.in_place(op, batch)
        out = getattr(op, entry)(dict(batch))
        out = out[0] if entry == "stats_and_flags" else out
        rows = NestedDataset(out).to_list()
        assert [list(row[Fields.stats].items()) for row in rows] == [
            list(row[Fields.stats].items()) for row in expected
        ]
        assert list(rows[0][Fields.stats]) == ["lang_score", "lang"]
        assert list(rows[1][Fields.stats]) == ["lang", "lang_score"]
        assert carried == [{"lang_score": 0.25}, None, {"other": 1, "lang": "xx"}, {}]

    def test_fields_a_per_row_compute_stats_writes_become_columns(self):
        metas = [{"n": 0}, {"n": 1}, {"n": 2}]
        batch = {"text": ["a", "bb", "ccc"], Fields.meta: metas}
        expected = self.in_place(StampFilter(), batch)
        kept, flags = StampFilter().filter_batched(dict(batch))
        assert flags == [False, True, True]
        assert list(kept) == ["text", Fields.meta, stat_column("chars"), "checked"]
        assert NestedDataset(kept).to_list() == expected[1:]
        assert metas == [{"n": 0}, {"n": 1}, {"n": 2}]


class TestFold:
    def test_stats_fold_at_the_stats_key_else_the_first_stat_column(self):
        row = {"text": "x", Fields.stats: {"a": 1}, "meta": {}, stat_column("b"): 2}
        assert list(fold_stats(row)) == ["text", Fields.stats, "meta"]
        assert fold_stats(row)[Fields.stats] == {"a": 1, "b": 2}
        row = {"text": "x", stat_column("b"): 2, "meta": {}, stat_column("a"): 1}
        assert fold_stats(row) == {"text": "x", Fields.stats: {"b": 2, "a": 1}, "meta": {}}
        assert list(fold_stats(row)) == ["text", Fields.stats, "meta"]

    def test_a_stat_column_wins_over_the_carried_key_and_nothing_is_edited(self):
        carried = {"a": 1, "z": 0}
        row = {Fields.stats: carried, stat_column("a"): 5}
        assert fold_stats(row)[Fields.stats] == {"a": 5, "z": 0}
        assert carried == {"a": 1, "z": 0}
        assert fold_stats({Fields.stats: None})[Fields.stats] == {}
        assert stats_folder(["text", "meta"]) is None

    def test_write_stat_keeps_carried_values_and_read_stat_reads_either(self):
        batch = {"text": ["aa", "bbb", "c"], Fields.stats: [{"n": 9}, None, {}]}
        assert read_stat(batch, "n", 0) == [9, 0, 0]
        write_stat(batch, "n", lambda: [2, 3, 1])
        assert batch[stat_column("n")] == [9, 3, 1]
        assert read_stat(batch, "n", 0) == [9, 3, 1]
        # an existing column is kept as it is
        write_stat(batch, "n", lambda: pytest.fail("recomputed"))

    def test_a_row_view_shows_one_stats_dict(self):
        dataset = NestedDataset({"text": ["a", "b"], stat_column("len"): [1, 1]})
        assert dataset.to_list() == [
            {"text": "a", Fields.stats: {"len": 1}}, {"text": "b", Fields.stats: {"len": 1}}
        ]
        assert dataset.column(Fields.stats) == [{"len": 1}, {"len": 1}]
        assert dataset.column("__stats__.len") == [1, 1]
