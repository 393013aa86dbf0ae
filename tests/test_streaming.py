"""Tests for the out-of-core streaming engine (shards, spill, two-pass resolve).

The invariant under test everywhere: ``Executor.run_streaming`` produces
*byte-identical* exports to the in-memory ``Executor.run`` path, while never
holding more than one shard of payload in memory.
"""

import copy
import json
import random
import sys
import tracemalloc
from pathlib import Path

import pytest

from repro.core.base_op import Deduplicator, Filter, Mapper, Selector
from repro.core.dataset import NestedDataset
from repro.core.errors import DatasetError, OpExecutionError
from repro.core.executor import Executor
from repro.core.exporter import Exporter
from repro.core.sample import Fields
from repro.core.stream import (
    DEFAULT_SHARD_ROWS,
    iter_record_shards,
    op_config_hash,
    plan_segments,
)
from repro.formats.jsonl_formatter import JsonlFormatter
from repro.formats.sharded import open_shard
from repro.ops import build_ops
from repro.recipes import get_recipe
from repro.synth.generators import DocumentGenerator, NoiseInjector


def messy_corpus_rows(num_samples: int = 240, seed: int = 7, duplicates: int = 40) -> list[dict]:
    """Web-like rows with noise and exact duplicates so every op category bites."""
    generator = DocumentGenerator(seed)
    noise = NoiseInjector(seed + 1)
    rng = random.Random(seed + 2)
    rows = []
    for index in range(num_samples):
        roll = rng.random()
        if roll < 0.6:
            text = generator.paragraph(num_sentences=rng.randint(1, 3))
        elif roll < 0.85:
            text = noise.corrupt(generator.paragraph(num_sentences=2), kinds=["links", "repetition"])
        else:
            text = noise.gibberish(length=rng.randint(60, 200))
        rows.append({"text": text, "meta": {"n": index}})
    for _ in range(duplicates):
        rows.append(dict(rng.choice(rows)))
    rng.shuffle(rows)
    return rows


def write_jsonl(path, rows):
    """Write ``rows`` as JSON lines, gzip-compressed when ``path`` ends in .gz."""
    with open_shard(path, "w") as handle:
        for row in rows:
            handle.write(json.dumps(row, ensure_ascii=False) + "\n")
    return path


# ----------------------------------------------------------------------
# Shard chunking and segment planning
# ----------------------------------------------------------------------
class TestIterRecordShards:
    def test_row_budget(self):
        shards = list(iter_record_shards(({"text": "x"} for _ in range(10)), max_rows=4))
        assert [len(shard) for shard in shards] == [4, 4, 2]

    def test_char_budget(self):
        records = [{"text": "abcde"} for _ in range(6)]
        shards = list(iter_record_shards(iter(records), max_chars=10))
        # each shard closes once >= 10 chars are in it (two 5-char rows)
        assert [len(shard) for shard in shards] == [2, 2, 2]

    def test_char_budget_counts_the_named_field(self):
        records = [{"text": "", "body": {"content": "abcdef"}} for _ in range(5)]
        by_body = list(iter_record_shards(iter(records), max_chars=10, text_key="body.content"))
        assert [len(shard) for shard in by_body] == [2, 2, 1]
        # the default field is empty in every row, so the budget never closes a shard
        assert [len(shard) for shard in iter_record_shards(iter(records), max_chars=10)] == [5]

    def test_default_budget_applies(self):
        shards = list(iter_record_shards(({"text": "x"} for _ in range(5))))
        assert len(shards) == 1 and len(shards[0]) == 5
        assert DEFAULT_SHARD_ROWS > 1

    def test_both_budgets_whichever_first(self):
        records = [{"text": "abcdefghij"} for _ in range(9)]
        shards = list(iter_record_shards(iter(records), max_rows=5, max_chars=30))
        # the 30-char budget (3 rows) closes shards before the row budget
        assert [len(shard) for shard in shards] == [3, 3, 3]

    def test_invalid_budget_raises(self):
        with pytest.raises(DatasetError):
            list(iter_record_shards(iter([]), max_rows=0))

    @pytest.mark.parametrize("budget", [{"max_chars": 64_000}, {"max_rows": 4}])
    def test_a_row_source_is_read_no_further_than_its_open_shard(self, budget):
        """Lazily generated ~16k-char rows, N and 4N of them: the traced peak
        stays within a few 64 k-char shards at both sizes (one shard is four
        rows), so it is bounded by the shard budget, not by a read-ahead."""

        def long_rows(count):
            for index in range(count):
                yield {"text": f"{index:08d}" + "x" * 16_000}

        peaks = []
        for count in (256, 1024):
            tracemalloc.start()
            sizes = [len(shard) for shard in iter_record_shards(long_rows(count), **budget)]
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
            assert sizes == [4] * (count // 4)
        assert max(peaks) < 4 * 64_000, peaks


class TestPlanSegments:
    def test_sample_ops_merge_into_one_segment(self):
        ops = build_ops([
            {"whitespace_normalization_mapper": {}},
            {"text_length_filter": {"min_len": 1}},
        ])
        segments = plan_segments(ops)
        assert len(segments) == 1
        assert segments[0].global_op is None
        assert [type(op).__base__ for op in segments[0].sample_ops] == [Mapper, Filter]

    def test_global_ops_close_segments(self):
        ops = build_ops([
            {"whitespace_normalization_mapper": {}},
            {"document_deduplicator": {}},
            {"text_length_filter": {"min_len": 1}},
            {"random_selector": {"select_num": 5}},
        ])
        segments = plan_segments(ops)
        assert len(segments) == 2
        assert isinstance(segments[0].global_op, Deduplicator)
        assert isinstance(segments[1].global_op, Selector)

    def test_trailing_global_op_has_no_extra_segment(self):
        ops = build_ops([
            {"whitespace_normalization_mapper": {}},
            {"document_deduplicator": {}},
        ])
        segments = plan_segments(ops)
        assert len(segments) == 1
        assert isinstance(segments[0].global_op, Deduplicator)

    def test_empty_pipeline_yields_passthrough_segment(self):
        segments = plan_segments([])
        assert len(segments) == 1
        assert segments[0].sample_ops == [] and segments[0].global_op is None

    def test_unknown_dataset_level_op_fails_fast(self):
        from repro.core.base_op import OP

        class CustomGlobalOp(OP):
            _name = "custom_global_op"

        with pytest.raises(DatasetError, match="custom_global_op"):
            plan_segments([CustomGlobalOp()])

    def test_op_config_hash_tracks_parameters(self):
        op_a, op_b = build_ops([{"text_length_filter": {"min_len": 1}}])[0], build_ops(
            [{"text_length_filter": {"min_len": 2}}]
        )[0]
        assert op_config_hash(op_a) != op_config_hash(op_b)
        assert op_config_hash(op_a) == op_config_hash(
            build_ops([{"text_length_filter": {"min_len": 1}}])[0]
        )


# ----------------------------------------------------------------------
# Streaming vs in-memory equality
# ----------------------------------------------------------------------
#: the fig8 workload recipes (see benchmarks/test_fig8_end_to_end.py)
FIG8_RECIPES = [
    "pretrain-books-refine-en",
    "pretrain-arxiv-refine-en",
    "pretrain-c4-refine-en",
]

#: one op name at two pipeline positions: profiles and trace records are per
#: position, never merged by name
REPEATED_OP_PROCESS = [
    {"text_length_filter": {"min_len": 20}},
    {"lowercase_mapper": {}},
    {"text_length_filter": {"min_len": 120}},
]


def recipe_process(name):
    """The op list of a built-in recipe, or of the test-only ``repeated-op`` one."""
    return REPEATED_OP_PROCESS if name == "repeated-op" else get_recipe(name)["process"]


class TestStreamingEquality:
    @pytest.mark.parametrize("recipe_name", FIG8_RECIPES)
    def test_fig8_recipes_byte_identical(self, tmp_path, recipe_name):
        input_path = write_jsonl(tmp_path / "in.jsonl", messy_corpus_rows())
        process = get_recipe(recipe_name)["process"]

        memory_cfg = {
            "dataset_path": str(input_path),
            "export_path": str(tmp_path / "memory.jsonl"),
            "process": process,
            "work_dir": str(tmp_path / "work-memory"),
        }
        stream_cfg = {
            "dataset_path": str(input_path),
            "export_path": str(tmp_path / "stream.jsonl"),
            "process": process,
            "work_dir": str(tmp_path / "work-stream"),
            "max_shard_rows": 37,
        }
        result = Executor(memory_cfg).run()
        report = Executor(stream_cfg).run_streaming()

        assert report["shards"]["input_shards"] > 5
        assert report["num_output_samples"] == len(result)
        assert (tmp_path / "stream.jsonl").read_bytes() == (tmp_path / "memory.jsonl").read_bytes()

    def test_selector_and_char_budget(self, tmp_path):
        input_path = write_jsonl(tmp_path / "in.jsonl", messy_corpus_rows())
        process = [
            {"whitespace_normalization_mapper": {}},
            {"words_num_filter": {"min_num": 5}},
            {"topk_specified_field_selector": {"field_key": "__stats__.num_words", "topk": 50}},
            {"document_simhash_deduplicator": {}},
        ]
        memory_cfg = {
            "dataset_path": str(input_path),
            "export_path": str(tmp_path / "memory.jsonl"),
            "process": process,
            "work_dir": str(tmp_path / "wm"),
        }
        stream_cfg = {
            "dataset_path": str(input_path),
            "export_path": str(tmp_path / "stream.jsonl"),
            "process": process,
            "work_dir": str(tmp_path / "ws"),
            "max_shard_chars": 15_000,
        }
        result = Executor(memory_cfg).run()
        report = Executor(stream_cfg).run_streaming()
        assert report["num_output_samples"] == len(result) <= 50
        assert (tmp_path / "stream.jsonl").read_bytes() == (tmp_path / "memory.jsonl").read_bytes()

    def test_in_memory_dataset_input(self, tmp_path):
        dataset = NestedDataset.from_list(
            JsonlFormatter(
                dataset_path=str(write_jsonl(tmp_path / "in.jsonl", messy_corpus_rows(80)))
            ).load_dataset().to_list()
        )
        process = [{"text_length_filter": {"min_len": 40}}, {"document_deduplicator": {}}]
        stream_cfg = {
            "process": process,
            "export_path": str(tmp_path / "stream.jsonl"),
            "work_dir": str(tmp_path / "ws"),
            "max_shard_rows": 16,
        }
        memory_cfg = {
            "process": process,
            "export_path": str(tmp_path / "memory.jsonl"),
            "work_dir": str(tmp_path / "wm"),
        }
        result = Executor(memory_cfg).run(dataset)
        report = Executor(stream_cfg).run_streaming(dataset)
        assert report["num_output_samples"] == len(result)
        assert (tmp_path / "stream.jsonl").read_bytes() == (tmp_path / "memory.jsonl").read_bytes()

    def test_empty_input_streams_cleanly(self, tmp_path):
        input_path = write_jsonl(tmp_path / "in.jsonl", [])
        # an empty .jsonl file is a valid (zero-record) shard
        stream_cfg = {
            "dataset_path": str(input_path),
            "export_path": str(tmp_path / "stream.jsonl"),
            "process": [{"document_deduplicator": {}}],
            "work_dir": str(tmp_path / "ws"),
        }
        report = Executor(stream_cfg).run_streaming()
        assert report["num_output_samples"] == 0
        assert (tmp_path / "stream.jsonl").read_text() == ""

    def test_worker_pool_streaming(self, tmp_path):
        input_path = write_jsonl(tmp_path / "in.jsonl", messy_corpus_rows(120))
        process = [
            {"whitespace_normalization_mapper": {}},
            {"text_length_filter": {"min_len": 40}},
            {"document_deduplicator": {}},
        ]
        memory_cfg = {
            "dataset_path": str(input_path),
            "export_path": str(tmp_path / "memory.jsonl"),
            "process": process,
            "work_dir": str(tmp_path / "wm"),
        }
        stream_cfg = {
            "dataset_path": str(input_path),
            "export_path": str(tmp_path / "stream.jsonl"),
            "process": process,
            "work_dir": str(tmp_path / "ws"),
            "max_shard_rows": 30,
            "np": 2,
        }
        Executor(memory_cfg).run()
        with Executor(stream_cfg) as executor:
            report = executor.run_streaming()
            assert report["parallel"]["start_method"] is not None
        assert (tmp_path / "stream.jsonl").read_bytes() == (tmp_path / "memory.jsonl").read_bytes()


# ----------------------------------------------------------------------
# Shard-granular checkpointing
# ----------------------------------------------------------------------
def stream_config(tmp_path, input_path, process):
    return {
        "dataset_path": str(input_path),
        "export_path": str(tmp_path / "out.jsonl"),
        "process": process,
        "work_dir": str(tmp_path / "work"),
        "max_shard_rows": 25,
        "use_checkpoint": True,
        "checkpoint_dir": str(tmp_path / "ckpt"),
    }


PROCESS = [
    {"whitespace_normalization_mapper": {}},
    {"text_length_filter": {"min_len": 40}},
    {"document_deduplicator": {}},
    {"words_num_filter": {"min_num": 5}},
]


class TestShardCheckpointing:
    def test_crash_resumes_mid_corpus(self, tmp_path):
        input_path = write_jsonl(tmp_path / "in.jsonl", messy_corpus_rows(200))
        config = stream_config(tmp_path, input_path, PROCESS)

        crashing = Executor(config)
        calls = {"count": 0}
        original = crashing.ops[0].process_batched

        def bomb(samples):
            calls["count"] += 1
            if calls["count"] > 3:
                raise RuntimeError("simulated crash")
            return original(samples)

        crashing.ops[0].process_batched = bomb
        with pytest.raises(OpExecutionError, match="simulated crash") as excinfo:
            crashing.run_streaming()
        # engine failures carry their location: op name + shard id
        assert "whitespace_normalization_mapper" in str(excinfo.value)
        assert "shard" in str(excinfo.value)

        resumed = Executor(config)
        report = resumed.run_streaming()
        assert report["shards"]["resumed_shards"] > 0

        reference_cfg = {
            "dataset_path": str(input_path),
            "export_path": str(tmp_path / "reference.jsonl"),
            "process": PROCESS,
            "work_dir": str(tmp_path / "wm"),
        }
        Executor(reference_cfg).run()
        assert (tmp_path / "out.jsonl").read_bytes() == (tmp_path / "reference.jsonl").read_bytes()

    def test_completed_run_is_fully_reused(self, tmp_path):
        input_path = write_jsonl(tmp_path / "in.jsonl", messy_corpus_rows(100))
        config = stream_config(tmp_path, input_path, PROCESS)
        first = Executor(config).run_streaming()
        assert first["shards"]["executed_shards"] > 0
        second = Executor(config).run_streaming()
        assert second["shards"]["executed_shards"] == 0
        assert second["shards"]["resumed_shards"] > 0
        assert second["num_output_samples"] == first["num_output_samples"]

    def test_config_change_invalidates_stream_checkpoint(self, tmp_path):
        input_path = write_jsonl(tmp_path / "in.jsonl", messy_corpus_rows(100))
        config = stream_config(tmp_path, input_path, PROCESS)
        Executor(config).run_streaming()

        edited = dict(config)
        edited["process"] = [
            {"whitespace_normalization_mapper": {}},
            {"text_length_filter": {"min_len": 60}},  # edited threshold
            {"document_deduplicator": {}},
            {"words_num_filter": {"min_num": 5}},
        ]
        report = Executor(edited).run_streaming()
        assert report["shards"]["resumed_shards"] == 0
        assert report["shards"]["executed_shards"] > 0

    def test_shard_budget_change_invalidates_stream_checkpoint(self, tmp_path):
        input_path = write_jsonl(tmp_path / "in.jsonl", messy_corpus_rows(100))
        config = stream_config(tmp_path, input_path, PROCESS)
        Executor(config).run_streaming()
        edited = dict(config)
        edited["max_shard_rows"] = 40
        report = Executor(edited).run_streaming()
        assert report["shards"]["resumed_shards"] == 0

    def test_input_edit_invalidates_stream_checkpoint(self, tmp_path):
        """Regression: resuming must notice that the input file changed.  And
        checkpoint-only keeps the last run's shards only: every edited input
        used to add its shards to the old ones (the memory-mode twin of this
        test is ``test_input_edit_invalidates_memory_checkpoint``)."""
        rows = messy_corpus_rows(100)
        input_path = write_jsonl(tmp_path / "in.jsonl", rows)
        config = stream_config(tmp_path, input_path, PROCESS)
        Executor(config).run_streaming()

        for edit in ("completely new ", "edited again ", "and once more "):
            edited_rows = [{"text": edit + row["text"], "meta": row["meta"]} for row in rows]
            write_jsonl(input_path, edited_rows)
            report = Executor(config).run_streaming()
            assert report["shards"]["resumed_shards"] == 0
            first_line = json.loads((tmp_path / "out.jsonl").read_text().splitlines()[0])
            assert first_line["text"].startswith(edit)
            # exactly the entries a fresh run over this input writes
            fresh = {**config, "checkpoint_dir": str(tmp_path / "fresh" / edit.strip())}
            Executor(fresh).run_streaming()
            kept = sorted(path.name for path in (tmp_path / "ckpt").glob("entry-*"))
            assert kept == sorted(
                path.name for path in (tmp_path / "fresh" / edit.strip()).glob("entry-*")
            )
            assert len(kept) == 2 * report["shards"]["input_shards"]  # one per shard and stage


# ----------------------------------------------------------------------
# Input shards signed by their source lines
# ----------------------------------------------------------------------
SIGNED_PROCESS = [
    {"whitespace_normalization_mapper": {}},
    {"text_length_filter": {"min_len": 40}},
    {"document_deduplicator": {}},
]


class TestShardsSignedBySource:
    """A stage-0 shard is keyed on the lines it was read from: a hit decodes nothing."""

    def run(self, tmp_path, input_path, tag, **options):
        config = {
            "dataset_path": str(input_path),
            "export_path": str(tmp_path / f"{tag}.jsonl"),
            "process": SIGNED_PROCESS,
            "work_dir": str(tmp_path / "work"),
            "max_shard_rows": 30,
            "use_cache": True,
            **options,
        }
        with Executor(config) as executor:
            report = executor.run_streaming()
        return (tmp_path / f"{tag}.jsonl").read_bytes(), report

    @staticmethod
    def spy(monkeypatch):
        """Count the .jsonl line decodes and the later-stage shard digests a run makes."""
        import repro.core.executor as executor_module
        from repro.formats.jsonl_formatter import JsonlFile

        calls = {"decode": 0, "shard_hash": 0}
        decode, columns_signature = JsonlFile.decode, executor_module.columns_signature

        def counted_decode(self, line, number):
            calls["decode"] += 1
            return decode(self, line, number)

        def counted_signature(shard):
            calls["shard_hash"] += 1
            return columns_signature(shard)

        monkeypatch.setattr(JsonlFile, "decode", counted_decode)
        monkeypatch.setattr(executor_module, "columns_signature", counted_signature)
        return calls

    @pytest.mark.parametrize("np_", [1, 2])
    @pytest.mark.parametrize("name", ["in.jsonl", "in.jsonl.gz"])
    def test_a_warm_rerun_decodes_and_digests_no_row(self, tmp_path, monkeypatch, name, np_):
        input_path = write_jsonl(tmp_path / name, messy_corpus_rows(150))
        cold, first = self.run(tmp_path, input_path, "cold", np=np_)
        assert first["shards"]["decoded_shards"] == first["shards"]["input_shards"] > 3

        calls = self.spy(monkeypatch)
        warm, report = self.run(tmp_path, input_path, "warm", np=np_)
        assert warm == cold
        assert calls == {"decode": 0, "shard_hash": 0}
        shards = report["shards"]
        assert report["cache"]["shard_hits"] == shards["input_shards"]
        assert shards["input_shards"] == first["shards"]["input_shards"]
        assert report["cache"]["shard_misses"] == shards["decoded_shards"] == 0

    def test_one_edited_line_misses_one_shard(self, tmp_path, monkeypatch):
        rows = messy_corpus_rows(150)
        input_path = write_jsonl(tmp_path / "in.jsonl", rows)
        self.run(tmp_path, input_path, "cold")
        rows[75] = {**rows[75], "text": "an edited line " + rows[75]["text"]}
        write_jsonl(input_path, rows)

        calls = self.spy(monkeypatch)
        edited, report = self.run(tmp_path, input_path, "edited")
        assert report["cache"]["shard_misses"] == report["shards"]["decoded_shards"] == 1
        assert report["cache"]["shard_hits"] == report["shards"]["input_shards"] - 1
        assert calls["decode"] == 30  # the one missed shard's lines
        assert b"an edited line" in edited

    def test_the_signature_covers_text_keys_and_lines_not_paths(self, tmp_path):
        rows = messy_corpus_rows(150)
        input_path = write_jsonl(tmp_path / "in.jsonl", rows)
        cold, first = self.run(tmp_path, input_path, "cold")
        shards = first["shards"]["input_shards"]

        # the same lines, gzip-compressed under another name: every shard hits
        out, report = self.run(tmp_path, write_jsonl(tmp_path / "other.jsonl.gz", rows), "gz")
        assert (out, report["cache"]["shard_hits"]) == (cold, shards)
        # the same lines under another suffix decode another __suffix__: all miss
        out, report = self.run(tmp_path, write_jsonl(tmp_path / "in.ndjson", rows), "ndjson")
        renamed = cold.replace(b'"__suffix__": ".jsonl"', b'"__suffix__": ".ndjson"')
        assert (out, report["cache"]["shard_misses"]) == (renamed, shards) != (cold, shards)
        # other text keys: every shard misses, though the rows decode the same
        out, report = self.run(tmp_path, input_path, "keys", text_keys=["content"])
        assert (out, report["cache"]["shard_misses"]) == (cold, shards)
        # the same rows written as other lines: every shard misses
        reformatted = tmp_path / "reformatted.jsonl"
        reformatted.write_text("".join(json.dumps(row, separators=(",", ":")) + "\n"
                                       for row in rows), encoding="utf-8")
        out, report = self.run(tmp_path, reformatted, "reformatted")
        assert (out, report["cache"]["shard_misses"]) == (cold, shards)

    def test_a_char_budget_cuts_the_shards_of_the_decoded_rows(self, tmp_path):
        input_path = write_jsonl(tmp_path / "in.jsonl", messy_corpus_rows(150))
        formatter = JsonlFormatter(dataset_path=str(input_path))
        by_lines = iter_record_shards(formatter.iter_sources(), max_chars=3000)
        by_rows = iter_record_shards(formatter.iter_records(), max_chars=3000)
        assert [len(shard) for shard in by_lines] == [len(shard) for shard in by_rows]

        budget = {"max_shard_rows": None, "max_shard_chars": 3000}
        cold, _ = self.run(tmp_path, input_path, "cold", **budget)
        warm, report = self.run(tmp_path, input_path, "warm", **budget)
        assert warm == cold
        # the budget had to decode every shard to count its text; all still hit
        assert report["cache"]["shard_hits"] == report["shards"]["decoded_shards"] > 3

    def test_rows_without_lines_sign_by_their_encoding(self, tmp_path):
        rows = JsonlFormatter(
            dataset_path=str(write_jsonl(tmp_path / "in.jsonl", messy_corpus_rows(90)))
        ).load_dataset().to_list()
        config = {
            "export_path": str(tmp_path / "out.jsonl"),
            "process": SIGNED_PROCESS,
            "work_dir": str(tmp_path / "work"),
            "max_shard_rows": 30,
            "use_cache": True,
        }
        Executor(config).run_streaming(NestedDataset.from_list(copy.deepcopy(rows)))
        rows[45]["text"] += " edited"
        report = Executor(config).run_streaming(NestedDataset.from_list(copy.deepcopy(rows)))
        assert report["cache"]["shard_misses"] == 1
        shards = report["shards"]
        assert report["cache"]["shard_hits"] == shards["input_shards"] - 1 > 2
        assert shards["decoded_shards"] == shards["input_shards"]


SELECTOR_PROCESS = [
    {"text_length_filter": {"min_len": 10}},
    {"topk_specified_field_selector": {"field_key": "__stats__.text_len", "topk": 60}},
]


class TestAWarmJobDecodesOnlyWhatItReads:
    """A replayed shard entry unpickles only the columns its reader uses: the
    signature pass a Deduplicator's hash column, the mask pass no column the
    resolve or (when its shards go straight to the exporter) the export drops."""

    def run(self, tmp_path, input_path, tag, memory=False, **options):
        config = {
            "dataset_path": str(input_path),
            "export_path": str(tmp_path / f"{tag}.jsonl"),
            "process": SIGNED_PROCESS,
            "work_dir": str(tmp_path / f"work-{tag}"),
            "cache_dir": str(tmp_path / "cache"),
            "max_shard_rows": 40,
            "use_cache": not memory,
            **options,
        }
        with Executor(config) as executor:
            report = executor.run() if memory else executor.run_streaming()
        # a replayed op traces nothing, so a global op's pipeline position differs
        traces = [path.read_bytes() for path in sorted((tmp_path / f"work-{tag}" / "trace").glob("*"))
                  if path.stem.endswith(("_deduplicator", "_selector"))]
        return (tmp_path / f"{tag}.jsonl").read_bytes(), report, traces

    def test_a_warm_dedup_job_unpickles_one_column_per_shard(self, tmp_path, monkeypatch):
        import pickle
        import types

        import repro.core.cache as cache_module
        import repro.formats.source as source_module

        input_path = write_jsonl(tmp_path / "in.jsonl", messy_corpus_rows(160))
        cold, _, _ = self.run(tmp_path, input_path, "cold")
        calls = {"loads": 0, "line_shards": 0}

        def loads(data):
            calls["loads"] += 1
            return pickle.loads(data)

        def line_shard(self, *args):
            calls["line_shards"] += 1
            init(self, *args)

        init = source_module.LineShard.__init__
        monkeypatch.setattr(source_module.LineShard, "__init__", line_shard)
        monkeypatch.setattr(cache_module, "pickle", types.SimpleNamespace(
            loads=loads, dumps=pickle.dumps, HIGHEST_PROTOCOL=pickle.HIGHEST_PROTOCOL))
        warm, report, _ = self.run(tmp_path, input_path, "warm")
        assert warm == cold
        shards = report["shards"]
        assert shards["input_shards"] == report["cache"]["shard_hits"] == 5
        # per shard: its entry read twice, and only ``meta`` unpickled of the
        # columns holding objects (in the mask pass) — a full decode unpickles
        # ``meta`` in both passes.  Every stored column is a blob of its own:
        # the signature pass unpickles ``__hash__`` alone, the mask pass
        # ``text``, ``meta`` and ``__suffix__``, never ``__stats__.text_len``
        # — 4 column loads a shard, where an entry holding ``text``,
        # ``__suffix__`` and ``__hash__`` inline unpickled all three in both
        # passes (7 columns, in 3 loads)
        assert shards["unpickled_columns"] == 5
        assert calls["loads"] == 5 * 2 + 5 * 4
        # the 200 lines were read as one block, then sliced and joined into
        # 5 shards: no object per line
        assert calls["line_shards"] == 1 + 2 * shards["input_shards"]

    def test_a_warm_selector_on_a_stat_unpickles_that_stat_column_alone(self, tmp_path,
                                                                        monkeypatch):
        from repro.core.executor import Executor as ExecutorClass

        input_path = write_jsonl(tmp_path / "in.jsonl", messy_corpus_rows(160))
        cold, _, _ = self.run(tmp_path, input_path, "cold", process=SELECTOR_PROCESS)
        read = []
        read_shard = ExecutorClass._read_shard

        def spy(self, key, progress, columns=None):
            shard = read_shard(self, key, progress, columns)
            read.append(shard.column_names)
            return shard

        monkeypatch.setattr(ExecutorClass, "_read_shard", spy)
        warm, report, _ = self.run(tmp_path, input_path, "warm", process=SELECTOR_PROCESS)
        memory, _, _ = self.run(tmp_path, input_path, "memory", True, process=SELECTOR_PROCESS)
        assert warm == cold == memory
        shards = report["shards"]["input_shards"]
        assert shards == report["cache"]["shard_hits"] == 5
        # the signature pass: the ranked stat's column alone, one per shard;
        # the mask pass: what the export keeps, no stat column
        assert read[:shards] == [["__stats__.text_len"]] * shards
        assert read[shards:] == [["text", "meta", "__suffix__"]] * shards

    @pytest.mark.parametrize(
        "options",
        [
            {"keep_stats_in_export": False},
            {"keep_stats_in_export": True},
            {"open_tracer": True, "trace_num": 5},
            # the dedup's masked shards feed a later stage, which reads their stats
            {"process": [*SIGNED_PROCESS, *SELECTOR_PROCESS[1:]]},
            {"process": SELECTOR_PROCESS, "keep_stats_in_export": True},
            # a Selector's trace shows the stats of the rows it dropped
            {"process": SELECTOR_PROCESS, "open_tracer": True},
        ],
        ids=["stats-dropped", "stats-kept", "traced", "later-stage", "selector-on-stats",
             "selector-traced"],
    )
    def test_a_warm_export_equals_the_cold_one(self, tmp_path, options):
        input_path = write_jsonl(tmp_path / "in.jsonl", messy_corpus_rows(160))
        cold, first, cold_traces = self.run(tmp_path, input_path, "cold", **options)
        warm, report, warm_traces = self.run(tmp_path, input_path, "warm", **options)
        memory, _, memory_traces = self.run(tmp_path, input_path, "memory", True, **options)
        assert warm == cold == memory and warm_traces == cold_traces == memory_traces
        assert report["cache"]["shard_hits"] == first["cache"]["shard_misses"] > 0
        if options.get("keep_stats_in_export"):
            assert b'"__stats__"' in warm
        if options.get("open_tracer"):
            [trace] = warm_traces
            assert b'"text_len"' in trace if "process" in options else b"original" in trace


class TestRunInput:
    def test_a_later_stage_key_signs_the_column_order(self, tmp_path):
        """Regression: a stage >= 1 shard was keyed by ``_stable_hash(rows)``,
        which sorts keys, so rows with columns ``id, text`` replayed the
        stored ``text, id`` rows of another input."""
        texts = [f"Document number {n} with some words" for n in range(20)]
        process = [{"document_deduplicator": {}}, {"document_simhash_deduplicator": {}},
                   {"lowercase_mapper": {}}]

        def run(tag, rows, **options):
            config = {
                "dataset_path": str(write_jsonl(tmp_path / f"{tag}-in.jsonl", rows)),
                "export_path": str(tmp_path / f"{tag}.jsonl"),
                "process": process,
                "work_dir": str(tmp_path / "work"),
                "max_shard_rows": 8,
                **options,
            }
            Executor(config).run_streaming()
            return (tmp_path / f"{tag}.jsonl").read_bytes()

        run("text-first", [{"text": text, "id": n} for n, text in enumerate(texts)],
            use_cache=True)
        id_first = [{"id": n, "text": text} for n, text in enumerate(texts)]
        warm = run("warm", id_first, use_cache=True)
        assert warm.startswith(b'{"id": 0')
        assert warm == run("cold", id_first)

    @pytest.mark.parametrize("np_", [1, 2])
    @pytest.mark.parametrize("mode", ["memory", "streaming"])
    def test_a_run_leaves_the_callers_dataset_as_it_was(self, tmp_path, mode, np_):
        """Regression: filters wrote their stats into the ``__stats__`` dicts
        of the caller's rows."""
        rows = [{**row, Fields.stats: {}} for row in messy_corpus_rows(60, duplicates=10)]
        dataset = NestedDataset.from_list(copy.deepcopy(rows))
        config = {
            "process": [{"text_length_filter": {"min_len": 40}}, {"document_deduplicator": {}}],
            "work_dir": str(tmp_path / "work"),
            "max_shard_rows": 25,
            "np": np_,
        }
        with Executor(config) as executor:
            executor.run(dataset) if mode == "memory" else executor.run_streaming(dataset)
        assert dataset.to_list() == rows


    @pytest.mark.parametrize("mode", ["memory", "streaming"])
    def test_a_run_without_a_store_reads_lines_as_blocks(self, tmp_path, monkeypatch, mode):
        """A ``.jsonl`` input reaches the engine as :class:`LineShard` blocks
        whether or not a store signs them: nothing decodes it row by row."""
        rows = messy_corpus_rows(60, duplicates=10)
        config = {
            "dataset_path": str(write_jsonl(tmp_path / "in.jsonl", rows)),
            "process": [{"text_length_filter": {"min_len": 40}}],
            "work_dir": str(tmp_path / "work"),
            "export_path": str(tmp_path / "out.jsonl"),
            "max_shard_rows": 25,
        }
        reference = Executor(config).run(NestedDataset.from_list(rows)).to_list()

        def row_by_row(self):
            raise AssertionError("the input was decoded row by row")

        monkeypatch.setattr(JsonlFormatter, "iter_records", row_by_row)
        executor = Executor(config)
        executor.run() if mode == "memory" else executor.run_streaming()
        exported = [json.loads(line) for line in (tmp_path / "out.jsonl").read_text().splitlines()]
        assert [row["text"] for row in exported] == [row["text"] for row in reference]

@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 4: a shard None-fills the union of its own rows' keys in "
    "first-seen order, so which keys an exported row has depends on the shard "
    "budget; a fix must know which keys each row had",
)
def test_an_export_does_not_depend_on_the_shard_budget(tmp_path):
    rows = [{"text": f"Document {n}"} for n in range(6)]
    rows += [{"text": f"Document {n}", "url": f"https://example.com/{n}"} for n in range(6, 12)]
    input_path = write_jsonl(tmp_path / "in.jsonl", rows)
    exports = {}
    for budget in (None, 4, 8):
        config = {
            "dataset_path": str(input_path),
            "export_path": str(tmp_path / f"out-{budget}.jsonl"),
            "process": [{"lowercase_mapper": {}}],
            "work_dir": str(tmp_path / "work"),
            "max_shard_rows": budget,
        }
        if budget is None:
            Executor(config).run()
        else:
            Executor(config).run_streaming()
        exports[budget] = (tmp_path / f"out-{budget}.jsonl").read_bytes()
    assert exports[4] == exports[None]
    assert exports[8] == exports[None]


# ----------------------------------------------------------------------
# Sharded streaming export
# ----------------------------------------------------------------------
class TestShardedExport:
    def test_numbered_gzip_shards_round_trip(self, tmp_path):
        rows = [{"text": f"document number {index} with some body"} for index in range(25)]
        exporter = Exporter(tmp_path / "out.jsonl.gz", shard_rows=10)
        paths = exporter.export_stream(iter(rows))
        assert [path.name for path in paths] == [
            "out-00001.jsonl.gz",
            "out-00002.jsonl.gz",
            "out-00003.jsonl.gz",
        ]
        # the shard directory loads back as one dataset, in order
        loaded = JsonlFormatter(dataset_path=str(tmp_path)).load_dataset()
        assert [row[Fields.text] for row in loaded] == [row["text"] for row in rows]

    def test_char_capped_shards(self, tmp_path):
        rows = [{"text": "x" * 100} for _ in range(10)]
        exporter = Exporter(tmp_path / "out.jsonl", shard_chars=250)
        paths = exporter.export_stream(iter(rows))
        assert len(paths) == 4  # three ~113-char lines exceed the 250-char cap
        total = sum(len(path.read_text().splitlines()) for path in paths)
        assert total == 10

    def test_streaming_executor_shard_output(self, tmp_path):
        input_path = write_jsonl(tmp_path / "in.jsonl", messy_corpus_rows(80))
        stream_cfg = {
            "dataset_path": str(input_path),
            "export_path": str(tmp_path / "export" / "out.jsonl.gz"),
            "process": [{"text_length_filter": {"min_len": 40}}],
            "work_dir": str(tmp_path / "ws"),
            "max_shard_rows": 20,
        }
        report = Executor(stream_cfg).run_streaming(shard_output=True)
        assert len(report["export_paths"]) > 1
        loaded = JsonlFormatter(dataset_path=str(tmp_path / "export")).load_dataset()
        assert len(loaded) == report["num_output_samples"]

    def test_shard_output_without_budget_still_shards(self, tmp_path):
        """Regression: --shard-output with no explicit budget wrote one file."""
        rows = [{"text": f"row {index} body text here"} for index in range(10)]
        input_path = write_jsonl(tmp_path / "in.jsonl", rows)
        stream_cfg = {
            "dataset_path": str(input_path),
            "export_path": str(tmp_path / "out.jsonl"),
            "process": [],
            "work_dir": str(tmp_path / "ws"),
        }
        report = Executor(stream_cfg).run_streaming(shard_output=True)
        assert [Path(p).name for p in map(str, report["export_paths"])] == ["out-00001.jsonl"]

    def test_empty_stream_writes_one_empty_shard(self, tmp_path):
        exporter = Exporter(tmp_path / "out.jsonl", shard_rows=5)
        paths = exporter.export_stream(iter([]))
        assert [path.name for path in paths] == ["out-00001.jsonl"]
        assert paths[0].read_text() == ""

    def test_json_array_cannot_shard(self, tmp_path):
        from repro.core.errors import ReproError

        with pytest.raises(ReproError, match="line-oriented"):
            Exporter(tmp_path / "out.json", shard_rows=5)

    def test_rerun_removes_stale_higher_numbered_shards(self, tmp_path):
        """Regression: a smaller re-export left old shards mixed with new."""
        rows = [{"text": f"row {index}"} for index in range(10)]
        Exporter(tmp_path / "out.jsonl", shard_rows=2).export_stream(iter(rows))
        assert (tmp_path / "out-00005.jsonl").exists()
        paths = Exporter(tmp_path / "out.jsonl", shard_rows=2).export_stream(iter(rows[:4]))
        assert len(paths) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "out-00001.jsonl",
            "out-00002.jsonl",
        ]


class TestStreamingFailureSafety:
    def test_failed_run_leaves_no_spill_behind(self, tmp_path):
        input_path = write_jsonl(tmp_path / "in.jsonl", messy_corpus_rows(60))
        config = {
            "dataset_path": str(input_path),
            "export_path": str(tmp_path / "out.jsonl"),
            "process": PROCESS,
            "work_dir": str(tmp_path / "work"),
            "max_shard_rows": 10,
        }
        executor = Executor(config)

        def bomb(samples):
            raise RuntimeError("boom")

        executor.ops[0].process_batched = bomb
        with pytest.raises(OpExecutionError, match="boom"):
            executor.run_streaming()
        spill_root = tmp_path / "work" / "stream-spill"
        assert not any(spill_root.iterdir())

    def test_a_cache_only_run_keeps_no_faulted_entry(self, tmp_path, monkeypatch):
        """A shard shaped by a fault is spilled to the run's own directory,
        removed at run end: the shared cache holds clean entries only."""
        from repro.core.cache import CacheManager
        from repro.testing import FaultPlan

        rows = messy_corpus_rows(60)
        rows[23]["text"] += " velociraptor"
        input_path = write_jsonl(tmp_path / "in.jsonl", rows)
        config = {
            "dataset_path": str(input_path),
            "export_path": str(tmp_path / "out.jsonl"),
            "process": PROCESS,
            "work_dir": str(tmp_path / "work"),
            "max_shard_rows": 10,
            "use_cache": True,
            "on_error": "quarantine",
        }
        put = CacheManager.put
        written: list[tuple[Path, str]] = []

        def recording_put(store, key, payload):
            written.append((store.cache_dir, key))
            return put(store, key, payload)

        monkeypatch.setattr(CacheManager, "put", recording_put)
        executor = Executor(config)
        FaultPlan().inject("whitespace_normalization_mapper", match="velociraptor").install(
            executor.ops
        )
        report = executor.run_streaming()
        assert report["faults"]["quarantined_rows"] == 1
        faulted = [place for place, key in written if key.endswith("#faulted")]
        cache = tmp_path / "work" / "cache"
        assert faulted and cache not in faulted
        entries = list(cache.glob("entry-*"))
        assert entries and len(entries) == sum(place == cache for place, _ in written)
        assert not any((tmp_path / "work" / "stream-spill").iterdir())

    def test_nonstandard_dedup_hash_key_fails_fast(self, tmp_path):
        from repro.core.base_op import Deduplicator
        from repro.core.stream import signature_column_names

        class OddDeduplicator(Deduplicator):
            _name = "odd_deduplicator"

        with pytest.raises(DatasetError, match="odd_deduplicator"):
            signature_column_names(OddDeduplicator(), ["text", "__odd_hash__"], "text")


# ----------------------------------------------------------------------
# The signature table of the global resolve
# ----------------------------------------------------------------------
def near_duplicate_rows(num_samples: int = 1500, seed: int = 5) -> list[dict]:
    """Short paragraphs, three in ten a one-word edit of an earlier row."""
    generator = DocumentGenerator(seed)
    rng = random.Random(seed + 1)
    rows: list[dict] = []
    for _ in range(num_samples):
        if rows and rng.random() < 0.3:
            words = rng.choice(rows)["text"].split()
            words[rng.randrange(len(words))] = "edited"
            rows.append({"text": " ".join(words)})
        else:
            rows.append({"text": generator.paragraph(num_sentences=3)})
    return rows


class TestSignatureTable:
    def test_minhash_resolve_holds_under_1kb_of_heap_per_row(self, tmp_path, monkeypatch):
        """Counted, not timed.  What the host keeps per row of a MinHash
        stage — from its first shard to the peak of its resolve — is the
        packed cell (4·P + 33 B), the table copy (4·P) and the clustering's
        index arrays; as int lists, per-row dicts and a tuple-keyed bucket
        dict it was 6.3 KB.  The corpus is handed over in memory and its
        shards are small, so no payload hides in the baseline."""
        import repro.core.executor as executor_module

        marks: dict[str, int] = {}
        real_shard_output = Executor._shard_output
        real_resolve = executor_module.resolve_global_keep

        def shard_output(self, *args, **kwargs):
            marks.setdefault("first_shard", tracemalloc.get_traced_memory()[0])
            return real_shard_output(self, *args, **kwargs)

        def resolve(op, signature, show_num=0):
            tracemalloc.reset_peak()
            try:
                return real_resolve(op, signature, show_num)
            finally:
                marks["resolve_peak"] = tracemalloc.get_traced_memory()[1]

        monkeypatch.setattr(Executor, "_shard_output", shard_output)
        monkeypatch.setattr(executor_module, "resolve_global_keep", resolve)
        corpus = NestedDataset.from_list(near_duplicate_rows())
        executor = Executor(
            {
                "process": [{"document_minhash_deduplicator": {}}],
                "work_dir": str(tmp_path / "work"),
                "max_shard_rows": 100,
            }
        )
        tracemalloc.start()
        try:
            report = executor.run_streaming(corpus)
        finally:
            tracemalloc.stop()
        rows = report["shards"]["signature_rows"]
        assert rows == len(corpus) > report["num_output_samples"]
        assert report["shards"]["signature_bytes"] == rows * sys.getsizeof(bytes(4 * 64))
        assert (marks["resolve_peak"] - marks["first_shard"]) / rows <= 1024

    def test_report_carries_the_largest_signature_table(self, tmp_path):
        """Max over the resolved stages: every row reaches the exact dedup
        (a 32-char hex digest each), fewer reach the MinHash stage but its
        cells are the bigger ones."""
        rows = messy_corpus_rows(120)
        config = {
            "dataset_path": str(write_jsonl(tmp_path / "in.jsonl", rows)),
            "process": [{"document_deduplicator": {}}, {"document_minhash_deduplicator": {}}],
            "work_dir": str(tmp_path / "work"),
            "max_shard_rows": 50,
        }
        report = Executor(config).run_streaming()
        survivors = len({row["text"] for row in rows})
        assert report["shards"]["signature_rows"] == len(rows)
        assert report["shards"]["signature_bytes"] == max(
            len(rows) * sys.getsizeof("0" * 32), survivors * sys.getsizeof(bytes(256))
        )
        rendered = report.render()
        assert f"signature_rows={len(rows)}" in rendered and "signature_bytes=" in rendered

    @pytest.mark.parametrize("field_key, kept", [("score", range(50, 70)), ("early", range(20, 30))])
    def test_a_column_missing_from_some_shards_is_none_filled(self, tmp_path, field_key, kept):
        """``score`` first appears in the second shard, ``early`` is gone
        after it: both read as ``None`` where absent, so the ranking sees the
        same column the in-memory dataset's column union gives it."""
        rows = [{"text": f"early document number {index}", "early": index} for index in range(30)]
        rows += [{"text": f"late document number {index}", "score": index} for index in range(30, 70)]
        config = {
            "process": [{"topk_specified_field_selector": {"field_key": field_key, "topk": len(kept)}}],
            "work_dir": str(tmp_path / "work"),
            "export_path": str(tmp_path / "out.jsonl"),
            "max_shard_rows": 25,
        }
        Executor(config).run_streaming(NestedDataset.from_list(rows))
        exported = [json.loads(line) for line in (tmp_path / "out.jsonl").read_text().splitlines()]
        assert [row["text"] for row in exported] == [rows[index]["text"] for index in kept]
        in_memory = Executor({**config, "export_path": None}).run(NestedDataset.from_list(rows))
        assert in_memory.column("text") == [row["text"] for row in exported]
