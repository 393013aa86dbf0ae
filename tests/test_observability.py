"""Tests for the unified observability layer across all three execution modes.

The invariants under test:

* ``run()`` and ``run_streaming()`` emit structurally identical
  :class:`~repro.core.report.RunReport` objects — same ops, same kept/dropped
  counts, same trace summaries — on real recipes.
* A streaming re-run with ``use_cache`` over unchanged inputs replays cached
  shard outputs instead of recomputing them (the ISSUE-4 acceptance
  criterion).
* The tracer's memory stays bounded across shards (first-``show_num``
  reservoirs), never O(corpus), and it keeps one record per pipeline
  position — per run.
"""

import json

import pytest

from repro.core.executor import Executor
from repro.core.monitor import RunProfiler
from repro.core.report import OpReport, REPORT_FILE, RunReport
from repro.core.tracer import Tracer
from repro.ops import build_ops

from tests.test_streaming import messy_corpus_rows, recipe_process, write_jsonl


# ----------------------------------------------------------------------
# RunReport object
# ----------------------------------------------------------------------
class TestRunReport:
    def make_report(self):
        return RunReport(
            mode="memory",
            plan=[{"op": "x"}],
            num_output_samples=7,
            ops=[OpReport("text_length_filter", "filter", rows_in=10, rows_out=7,
                          calls=1, wall_time_s=0.5)],
            cache={"hits": 1, "misses": 2, "shard_hits": 0, "shard_misses": 0},
            resources={"wall_time_s": 1.0, "max_rss_mb": 10.0},
            parallel={"np": 1, "batch_size": None, "start_method": None},
            export_paths=["/tmp/out.jsonl"],
        )

    def test_mapping_interface_backwards_compatible(self):
        report = self.make_report()
        assert report["num_output_samples"] == 7
        assert report["cache"]["hits"] == 1
        assert report.get("export_paths") == ["/tmp/out.jsonl"]
        assert report.get("missing", "fallback") == "fallback"
        assert set(report) == set(report.as_dict())

    def test_round_trip_through_json(self, tmp_path):
        report = self.make_report()
        path = report.save(tmp_path / "report.json")
        loaded = RunReport.load(path)
        assert loaded.as_dict() == report.as_dict()
        # loading from the directory finds the canonical file name
        report.save(tmp_path / REPORT_FILE)
        assert RunReport.load(tmp_path).as_dict() == report.as_dict()

    def test_derived_op_fields(self):
        op = OpReport("f", "filter", rows_in=100, rows_out=60, wall_time_s=2.0)
        assert op.removed == 40
        assert op.rows_per_sec == pytest.approx(50.0)
        assert OpReport("f", "filter").rows_per_sec == 0.0

    def test_render_mentions_every_op(self):
        text = self.make_report().render()
        assert "text_length_filter" in text
        assert "mode=memory" in text


class TestRunProfiler:
    def test_aggregates_across_calls(self):
        ops = build_ops([{"text_length_filter": {"min_len": 1}}])
        profiler = RunProfiler()
        for _ in range(3):
            with profiler.track(ops[0], rows_in=10) as tracking:
                tracking.rows_out = 8
        (profile,) = profiler.reports()
        assert (profile.calls, profile.rows_in, profile.rows_out) == (3, 30, 24)
        assert profile.wall_time_s > 0
        assert profile.op_type == "filter"

    def test_unset_rows_out_counts_time_but_not_rows(self):
        ops = build_ops([{"document_deduplicator": {}}])
        profiler = RunProfiler()
        with profiler.track(ops[0], rows_in=10):
            pass  # e.g. a Deduplicator's hashing stage: timed, rows deferred
        (profile,) = profiler.reports()
        assert (profile.calls, profile.rows_in, profile.rows_out) == (1, 0, 0)

    def test_cached_calls_tracked_separately(self):
        ops = build_ops([{"text_length_filter": {"min_len": 1}}])
        profiler = RunProfiler()
        profiler.record_cached(ops[0], 5)
        (profile,) = profiler.reports()
        assert profile.cached_calls == 1 and profile.rows_in == 0


# ----------------------------------------------------------------------
# The tracer under streaming use: one call per shard
# ----------------------------------------------------------------------
class TestStreamingTracer:
    def test_examples_stay_bounded_across_shards(self):
        from repro.core.dataset import NestedDataset

        (mapper,) = build_ops([{"lowercase_mapper": {}}])
        tracer = Tracer(show_num=4)
        for shard in range(10):
            mapper.run(
                NestedDataset.from_list([{"text": f"SHARD {shard} ROW {i}"} for i in range(20)]),
                tracer=tracer,
            )
        summary = tracer.summary()
        assert summary == [
            {"op_name": "lowercase_mapper", "op_type": "mapper", "input_size": 200,
             "output_size": 200, "removed": 0}
        ]
        assert len(tracer.records[0].examples) == 4  # bounded, never O(corpus)

    def test_filter_accumulates_with_global_indexes(self):
        from repro.core.dataset import NestedDataset

        (length_filter,) = build_ops([{"text_length_filter": {"min_len": 5}}])
        tracer = Tracer(show_num=10)
        for texts in (["keep!", "no"], ["nah", "keep!"]):
            length_filter.run(
                NestedDataset.from_list([{"text": text} for text in texts]), tracer=tracer
            )
        (record,) = tracer.records
        assert (record.input_size, record.output_size) == (4, 2)
        assert [example["index"] for example in record.examples] == [1, 2]

    def test_every_shard_rewrites_the_one_file_of_its_op(self, tmp_path):
        tracer = Tracer(show_num=2, trace_dir=tmp_path)
        tracer.add("f", 1, 1)
        tracer.add("f", 1, 1)
        assert len(tracer.records) == 1
        (path,) = tmp_path.glob("trace-*.jsonl")
        assert path.name == "trace-001-f.jsonl"
        assert json.loads(path.read_text().splitlines()[0])["input_size"] == 2

    def test_records_are_per_op_instance_in_first_touch_order(self, tmp_path):
        from repro.core.dataset import NestedDataset

        first, mapper, second = build_ops([
            {"text_length_filter": {"min_len": 1}},
            {"lowercase_mapper": {}},
            {"text_length_filter": {"min_len": 2}},
        ])
        tracer = Tracer(trace_dir=tmp_path)
        dataset = NestedDataset.from_list([{"text": "a"}, {"text": "BB"}])
        for _shard in range(2):
            first.run(dataset, tracer=tracer)
            mapper.run(dataset, tracer=tracer)
            second.run(dataset, tracer=tracer)
        tracer.add("selector", 10, 5)
        assert [(r.op_name, r.input_size, r.output_size) for r in tracer.records] == [
            ("text_length_filter", 4, 4),
            ("lowercase_mapper", 4, 4),
            ("text_length_filter", 4, 2),
            ("selector", 10, 5),
        ]
        assert sorted(path.name for path in tmp_path.glob("trace-*.jsonl")) == [
            "trace-001-text_length_filter.jsonl",
            "trace-002-lowercase_mapper.jsonl",
            "trace-003-text_length_filter.jsonl",
            "trace-004-selector.jsonl",
        ]


# ----------------------------------------------------------------------
# Mode parity: run() vs run_streaming() reports
# ----------------------------------------------------------------------
class TestReportParity:
    @pytest.mark.parametrize("recipe_name", ["pretrain-c4-refine-en", "repeated-op"])
    def test_fig8_recipe_reports_structurally_identical(self, tmp_path, recipe_name):
        input_path = write_jsonl(tmp_path / "in.jsonl", messy_corpus_rows(160))
        process = recipe_process(recipe_name)
        memory = Executor({
            "dataset_path": str(input_path),
            "export_path": str(tmp_path / "memory.jsonl"),
            "process": process,
            "work_dir": str(tmp_path / "wm"),
            "open_tracer": True,
        })
        result = memory.run()
        streaming = Executor({
            "dataset_path": str(input_path),
            "export_path": str(tmp_path / "stream.jsonl"),
            "process": process,
            "work_dir": str(tmp_path / "ws"),
            "max_shard_rows": 23,
            "open_tracer": True,
        })
        stream_report = streaming.run_streaming()

        assert isinstance(memory.last_report, RunReport)
        assert isinstance(stream_report, RunReport)
        # same ops, same kept/dropped counts — the acceptance criterion
        assert memory.last_report.op_summary() == stream_report.op_summary()
        assert memory.last_report["trace"] == stream_report["trace"]
        # one trace record and one trace file per pipeline position — an op
        # name listed twice is two records — in both modes
        assert [entry["op_name"] for entry in stream_report["trace"]] == [
            op.name for op in streaming.ops
        ]
        for work_dir in ("wm", "ws"):
            assert sorted(path.name for path in (tmp_path / work_dir / "trace").iterdir()) == [
                f"trace-{position:03d}-{op.name}.jsonl"
                for position, op in enumerate(streaming.ops, 1)
            ]
        assert memory.last_report["num_output_samples"] == len(result)
        assert stream_report["num_output_samples"] == len(result)
        # per-op sections carry real measurements in both modes
        for report in (memory.last_report, stream_report):
            assert all(op.wall_time_s > 0 for op in report.ops)
            assert all(op.max_rss_mb > 0 for op in report.ops)

    def test_dedup_trace_shows_trace_num_pairs_the_same_in_both_modes(self, tmp_path):
        """Regression: a Deduplicator showed at most 10 pairs whatever
        ``trace_num`` said, and streaming showed dropped rows instead of the
        paper's (original, duplicate) pairs."""
        rows = [{"text": f"document number {index} with words"} for index in range(5)]
        rows += [{"text": "the same duplicated document text"} for _copy in range(56)]
        input_path = write_jsonl(tmp_path / "in.jsonl", rows)
        files = {}
        for mode in ("memory", "streaming"):
            executor = Executor({
                "dataset_path": str(input_path),
                "process": [{"document_deduplicator": {}}],
                "work_dir": str(tmp_path / mode),
                "max_shard_rows": 7,
                "open_tracer": True,
                "trace_num": 15,
            })
            executor.run() if mode == "memory" else executor.run_streaming()
            (path,) = (tmp_path / mode / "trace").iterdir()
            files[mode] = path.read_bytes()
        header, *examples = [json.loads(line) for line in files["memory"].splitlines()]
        assert (header["input_size"], header["output_size"]) == (61, 6)
        assert examples == [
            {"original": rows[-1]["text"], "duplicate": rows[-1]["text"]}
        ] * 15
        assert files["streaming"] == files["memory"]

    def test_consecutive_runs_report_their_own_trace(self, tmp_path):
        """Regression: the tracer lived as long as the executor, so a second
        ``run()`` reported the first run's records again and wrote
        ``trace-002-…`` next to ``trace-001-…``."""
        input_path = write_jsonl(tmp_path / "in.jsonl", messy_corpus_rows(40))
        executor = Executor({
            "dataset_path": str(input_path),
            "process": [{"text_length_filter": {"min_len": 40}}],
            "work_dir": str(tmp_path / "work"),
            "open_tracer": True,
        })
        traces = []
        for _run in range(2):
            executor.run()
            traces.append(executor.last_report["trace"])
            assert [path.name for path in (tmp_path / "work" / "trace").iterdir()] == [
                "trace-001-text_length_filter.jsonl"
            ]
        assert len(traces[0]) == 1 and traces[1] == traces[0]

    def test_reports_persisted_to_work_dir(self, tmp_path):
        input_path = write_jsonl(tmp_path / "in.jsonl", messy_corpus_rows(40))
        config = {
            "dataset_path": str(input_path),
            "export_path": str(tmp_path / "out.jsonl"),
            "process": [{"text_length_filter": {"min_len": 40}}],
            "work_dir": str(tmp_path / "work"),
            "max_shard_rows": 10,
        }
        report = Executor(config).run_streaming()
        loaded = RunReport.load(tmp_path / "work")
        assert loaded.as_dict() == report.as_dict()
        assert loaded.mode == "streaming"
        assert loaded.ops and loaded.ops[0].name == "text_length_filter"


# ----------------------------------------------------------------------
# Shard-level cache (the ISSUE-4 acceptance criterion)
# ----------------------------------------------------------------------
def cached_stream_config(tmp_path, input_path, process, **overrides):
    config = {
        "dataset_path": str(input_path),
        "export_path": str(tmp_path / "out.jsonl"),
        "process": process,
        "work_dir": str(tmp_path / "work"),
        "max_shard_rows": 25,
        "use_cache": True,
    }
    config.update(overrides)
    return config


PROCESS = [
    {"whitespace_normalization_mapper": {}},
    {"text_length_filter": {"min_len": 40}},
    {"document_deduplicator": {}},
    {"words_num_filter": {"min_num": 5}},
]


class TestStreamingShardCache:
    def test_rerun_hits_shard_cache_and_skips_recomputation(self, tmp_path):
        input_path = write_jsonl(tmp_path / "in.jsonl", messy_corpus_rows(150))
        config = cached_stream_config(tmp_path, input_path, PROCESS)
        first = Executor(config).run_streaming()
        assert first["cache"]["shard_hits"] == 0
        assert first["cache"]["shard_misses"] > 0
        assert first["shards"]["executed_shards"] > 0

        rerun = Executor(config)
        calls = {"count": 0}
        for op in rerun.ops:
            # the shard-local entry points: stats/keep for Mappers/Filters,
            # per-sample hashing for Deduplicators
            method = (
                "process_batched" if hasattr(op, "process_batched") else "compute_hash_batched"
            )
            original = getattr(op, method)

            def spy(samples, _original=original):
                calls["count"] += 1
                return _original(samples)

            setattr(op, method, spy)
        second = rerun.run_streaming()

        assert second["cache"]["shard_hits"] >= 1
        # cached_shards counts shard*stage units: every input shard of every
        # pipeline segment was answered from the cache
        assert second["shards"]["cached_shards"] >= second["shards"]["input_shards"]
        assert second["shards"]["executed_shards"] == 0
        assert calls["count"] == 0  # recomputation genuinely skipped
        assert second["num_output_samples"] == first["num_output_samples"]
        assert any(op.cached_calls > 0 for op in rerun.last_report.ops)

    def test_input_edit_misses_shard_cache(self, tmp_path):
        rows = messy_corpus_rows(80)
        input_path = write_jsonl(tmp_path / "in.jsonl", rows)
        config = cached_stream_config(tmp_path, input_path, PROCESS)
        Executor(config).run_streaming()
        edited = [{"text": "brand new " + row["text"], "meta": row["meta"]} for row in rows]
        write_jsonl(input_path, edited)
        report = Executor(config).run_streaming()
        assert report["cache"]["shard_hits"] == 0
        assert report["shards"]["executed_shards"] > 0

    def test_config_edit_reexecutes_the_edited_stage(self, tmp_path):
        input_path = write_jsonl(tmp_path / "in.jsonl", messy_corpus_rows(80))
        config = cached_stream_config(tmp_path, input_path, PROCESS)
        Executor(config).run_streaming()
        edited_process = [
            {"whitespace_normalization_mapper": {}},
            {"text_length_filter": {"min_len": 60}},  # edited threshold
            {"document_deduplicator": {}},
            {"words_num_filter": {"min_num": 5}},
        ]
        # the edited op's fingerprint chain changed, so its stage re-executes
        # (downstream stages may still legitimately hit on shards whose
        # content the edit did not change — the cache is content-keyed);
        # the output must match a cache-free reference run exactly
        report = Executor(
            cached_stream_config(tmp_path, input_path, edited_process)
        ).run_streaming()
        assert report["shards"]["executed_shards"] > 0
        reference = dict(
            cached_stream_config(tmp_path, input_path, edited_process),
            use_cache=False,
            export_path=str(tmp_path / "reference.jsonl"),
            work_dir=str(tmp_path / "work-ref"),
        )
        Executor(reference).run_streaming()
        assert (tmp_path / "out.jsonl").read_bytes() == (
            tmp_path / "reference.jsonl"
        ).read_bytes()

    def test_cached_rerun_export_is_byte_identical(self, tmp_path):
        input_path = write_jsonl(tmp_path / "in.jsonl", messy_corpus_rows(100))
        config = cached_stream_config(tmp_path, input_path, PROCESS)
        Executor(config).run_streaming()
        first_bytes = (tmp_path / "out.jsonl").read_bytes()
        report = Executor(config).run_streaming()
        assert report["cache"]["shard_hits"] > 0
        assert (tmp_path / "out.jsonl").read_bytes() == first_bytes


# ----------------------------------------------------------------------
# CLI + analyzer consumption of run reports
# ----------------------------------------------------------------------
class TestReportConsumers:
    def run_streaming_once(self, tmp_path, shard_output=False):
        from repro.cli import main

        input_path = write_jsonl(tmp_path / "in.jsonl", messy_corpus_rows(60))
        args = [
            "process",
            "--dataset", str(input_path),
            "--recipe", "dedup-only-exact",
            "--export", str(tmp_path / "export" / "out.jsonl"),
            "--work-dir", str(tmp_path / "work"),
            "--stream", "--max-shard-rows", "16",
        ]
        if shard_output:
            args.append("--shard-output")
        assert main(args) == 0
        return tmp_path / "work"

    def test_report_subcommand_renders_text_and_json(self, tmp_path, capsys):
        from repro.cli import main

        work_dir = self.run_streaming_once(tmp_path)
        assert main(["report", "--work-dir", str(work_dir)]) == 0
        text = capsys.readouterr().out
        assert "mode=streaming" in text
        assert "document_deduplicator" in text

        assert main(["report", "--work-dir", str(work_dir), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "streaming"
        assert payload["ops"][0]["name"] == "document_deduplicator"

    def test_report_subcommand_missing_report_fails(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="no run report"):
            main(["report", "--work-dir", str(tmp_path)])

    def test_analyzer_consumes_streaming_run_export(self, tmp_path):
        from repro.analysis.analyzer import Analyzer

        work_dir = self.run_streaming_once(tmp_path, shard_output=True)
        analyzer = Analyzer(
            analysis_process=[{"text_length_filter": {}}], with_diversity=False
        )
        probe = analyzer.analyze_run(work_dir)
        report = RunReport.load(work_dir)
        assert probe.num_samples == report.num_output_samples
        assert "text_len" in probe.summaries

    def test_analyze_stream_matches_in_memory_probe(self, tmp_path):
        from repro.analysis.analyzer import Analyzer
        from repro.formats.load import load_dataset, load_formatter

        input_path = write_jsonl(tmp_path / "in.jsonl", messy_corpus_rows(50))
        analyzer = Analyzer(analysis_process=[{"words_num_filter": {}}])
        in_memory = analyzer.analyze(load_dataset(str(input_path)))
        streamed = analyzer.analyze_stream(
            load_formatter(str(input_path)).iter_records()
        )
        assert streamed.num_samples == in_memory.num_samples
        assert {
            name: summary.as_dict() for name, summary in streamed.summaries.items()
        } == {name: summary.as_dict() for name, summary in in_memory.summaries.items()}
        assert streamed.diversity.verb_counts == in_memory.diversity.verb_counts

    def test_analyze_run_txt_export_is_line_per_document(self, tmp_path):
        """Regression: a .txt export is one document per line, and must not
        be collapsed into a single sample by the whole-file text formatter."""
        from repro.analysis.analyzer import Analyzer

        rows = [
            {"text": f"single line document number {index} with enough words"}
            for index in range(40)
        ]
        input_path = write_jsonl(tmp_path / "in.jsonl", rows)
        report = Executor({
            "dataset_path": str(input_path),
            "export_path": str(tmp_path / "out.txt"),
            "process": [],
            "work_dir": str(tmp_path / "work"),
        }).run_streaming()
        probe = Analyzer(
            analysis_process=[{"text_length_filter": {}}], with_diversity=False
        ).analyze_run(report)
        assert probe.num_samples == 40

    def test_analyze_cli_stream_flag(self, tmp_path, capsys):
        from repro.cli import main

        input_path = write_jsonl(tmp_path / "in.jsonl", messy_corpus_rows(30, duplicates=0))
        assert main(["analyze", "--dataset", str(input_path), "--stream"]) == 0
        assert "Data probe over 30 samples" in capsys.readouterr().out

    def test_analyze_cli_report_flag(self, tmp_path, capsys):
        from repro.cli import main

        work_dir = self.run_streaming_once(tmp_path)
        assert main(["analyze", "--report", str(work_dir)]) == 0
        assert "Data probe over" in capsys.readouterr().out
