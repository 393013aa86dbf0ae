"""Segment dispatch: a chunk crosses the pool once per segment, not once per op.

The contracts under test:

* **Byte identity** — one export, one ``op_summary()`` and (tracer on) one
  ``trace`` summary and one set of trace files, examples included, however a
  recipe is run: np 1/2 x memory/streaming x tracer on/off x cache on/off,
  for fusion on and off; and the dataset a pooled run returns carries the
  np=1 fingerprint.
* **One driver** — both run loops cut an op list the same way: the longest
  pool-resident prefix travels as a segment, the rest runs on the host.
* **Dispatch count** — with nothing that needs an intermediate dataset on the
  host, a pooled run sends at most chunks x segments tasks; an open tracer
  sends exactly as many as an untraced run.
* **Observability** — a pooled op's ``seconds`` is worker-measured, and the
  report's ``parallel`` section accounts tasks, worker and dispatch time.
"""

import itertools

import pytest

from repro.core.executor import Executor
from repro.core.stream import plan_segments
from repro.parallel import WorkerPool

from tests.test_streaming import FIG8_RECIPES, messy_corpus_rows, recipe_process, write_jsonl

#: the 13-op web-cleaning list of bench/ and benchmarks/test_batch_throughput.py
WEB_CLEAN = [
    {"fix_unicode_mapper": {}},
    {"whitespace_normalization_mapper": {}},
    {"lowercase_mapper": {}},
    {"text_length_filter": {"min_len": 40}},
    {"whitespace_ratio_filter": {"min_ratio": 0.01, "max_ratio": 0.5}},
    {"digit_ratio_filter": {"max_ratio": 0.3}},
    {"special_characters_filter": {"max_ratio": 0.4}},
    {"character_repetition_filter": {"rep_len": 8, "max_ratio": 0.6}},
    {"words_num_filter": {"min_num": 10}},
    {"word_repetition_filter": {"rep_len": 5, "max_ratio": 0.6}},
    {"stopwords_filter": {"min_ratio": 0.0}},
    {"flagged_words_filter": {"max_ratio": 1.0}},
    {"document_deduplicator": {}},
]

#: (np, mode, tracer, cache)
GRID = list(itertools.product((1, 2), ("memory", "streaming"), (False, True), (False, True)))


def run_config(tmp_path, tag, input_path, process, np, mode, **options):
    """One run through the given mode; returns (export bytes, executor, dataset|None)."""
    config = {
        "dataset_path": str(input_path),
        "export_path": str(tmp_path / f"{tag}.jsonl"),
        "work_dir": str(tmp_path / f"work-{tag}"),
        "process": process,
        "np": np,
        "max_shard_rows": 50,
        **options,
    }
    with Executor(config) as executor:
        dataset = executor.run() if mode == "memory" else None
        if mode == "streaming":
            executor.run_streaming()
    return (tmp_path / f"{tag}.jsonl").read_bytes(), executor, dataset


class TestByteIdentityAndFingerprints:
    @pytest.mark.parametrize("op_fusion", [False, True], ids=["plain", "fused"])
    @pytest.mark.parametrize("recipe_name", FIG8_RECIPES + ["repeated-op"])
    def test_one_export_and_one_summary_however_it_runs(self, tmp_path, recipe_name, op_fusion):
        input_path = write_jsonl(tmp_path / "in.jsonl", messy_corpus_rows(160, duplicates=30))
        process = recipe_process(recipe_name)
        exports, summaries, fingerprints, traces, trace_files = {}, {}, {}, {}, {}
        for np, mode, tracer, cache in GRID:
            tag = f"np{np}-{mode}-t{int(tracer)}-c{int(cache)}"
            exported, executor, dataset = run_config(
                tmp_path, tag, input_path, process, np, mode,
                op_fusion=op_fusion, open_tracer=tracer, use_cache=cache,
            )
            exports[tag] = exported
            summaries[tag] = executor.last_report.op_summary()
            if tracer:
                traces[tag] = executor.last_report["trace"]
                trace_files[tag] = {
                    path.name: path.read_bytes()
                    for path in sorted((tmp_path / f"work-{tag}" / "trace").iterdir())
                }
            if dataset is not None:
                fingerprints[tag] = dataset.fingerprint
        reference = "np1-memory-t0-c0"
        assert exports[reference]
        assert {tag for tag, data in exports.items() if data != exports[reference]} == set()
        assert {
            tag for tag, summary in summaries.items() if summary != summaries[reference]
        } == set()
        # cache keys agree across strategies: a pooled segment stamps the
        # chained fingerprint the ops would have stamped one by one.  With a
        # store the chain starts from the input's content signature instead
        for cache in ("c0", "c1"):
            assert len({fp for tag, fp in fingerprints.items() if tag.endswith(cache)}) == 1
        # one tracer for both modes: a record per pipeline position
        traced = traces["np1-memory-t1-c0"]
        assert len(traced) == len(executor.ops)
        assert {tag for tag, trace in traces.items() if trace != traced} == set()
        # and one set of trace files, examples included, byte for byte
        files = trace_files["np1-memory-t1-c0"]
        assert len(files) == len(executor.ops)
        assert any(len(data.splitlines()) > 1 for data in files.values())
        assert {tag for tag, found in trace_files.items() if found != files} == set()


class TestDispatchCount:
    @pytest.fixture(scope="class")
    def input_path(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("web-clean")
        return write_jsonl(root / "in.jsonl", messy_corpus_rows(400, duplicates=60))

    def test_memory_mode_sends_one_task_per_chunk_per_segment(self, tmp_path, input_path):
        _exported, executor, _dataset = run_config(
            tmp_path, "pooled", input_path, WEB_CLEAN, 2, "memory", op_fusion=True
        )
        segments = plan_segments(executor.ops)
        assert len(segments) == 1 and len(executor.ops) == 10
        chunks = 2 * 4  # default_chunk_size: ~4 chunks per worker
        parallel = executor.last_report["parallel"]
        assert 0 < parallel["tasks"] <= chunks * len(segments)
        # per-op dispatch would have sent one task per op per chunk, or more
        assert parallel["tasks"] < len(executor.ops) * chunks
        assert parallel["worker_s"] > 0 and parallel["dispatch_s"] >= 0

    def test_streaming_mode_sends_one_task_per_chunk_per_shard(self, tmp_path, input_path):
        _exported, executor, _dataset = run_config(
            tmp_path, "pooled", input_path, WEB_CLEAN, 2, "streaming", op_fusion=True
        )
        report = executor.last_report
        assert report["parallel"]["tasks"] <= 2 * 4 * report["shards"]["executed_shards"]

    @pytest.mark.parametrize("mode", ["memory", "streaming"])
    def test_partly_resident_op_list_sends_its_prefix_as_a_segment(
        self, tmp_path, input_path, mode
    ):
        """Both run loops share the driver's rule: the ops the pool holds up
        to the first one it does not travel as one segment; the rest run on
        the host (streaming used to give up on the pool altogether)."""
        reference, serial, serial_dataset = run_config(
            tmp_path, "serial", input_path, WEB_CLEAN, 1, mode, op_fusion=True
        )
        config = {
            "dataset_path": str(input_path),
            "export_path": str(tmp_path / "partial.jsonl"),
            "work_dir": str(tmp_path / "work-partial"),
            "process": WEB_CLEAN,
            "op_fusion": True,
            "np": 2,
            "max_shard_rows": 50,
        }
        with Executor(config) as executor:
            resident = executor.ops[:4]
            # stand in for the executor's own pool: it holds a prefix only
            executor._pool = WorkerPool(2, ops=resident)
            assert not executor._pool.holds(executor.ops[4])
            dispatch, sent = executor._pool.run_segment, []
            executor._pool.run_segment = lambda ops, batches, trace_num=0: (
                sent.append(len(ops)) or dispatch(ops, batches, trace_num)
            )
            dataset = executor.run() if mode == "memory" else None
            if mode == "streaming":
                executor.run_streaming()
            report = executor.last_report
        assert (tmp_path / "partial.jsonl").read_bytes() == reference
        assert report.op_summary() == serial.last_report.op_summary()
        if dataset is not None:
            assert dataset.fingerprint == serial_dataset.fingerprint
        units = 1 if mode == "memory" else report["shards"]["executed_shards"]
        assert sent == [len(resident)] * units
        assert 0 < report["parallel"]["tasks"] <= 2 * 4 * units

    def test_an_open_tracer_does_not_cut_segments(self, tmp_path, input_path):
        """The segment hands back each op's trace examples, so a traced run
        dispatches exactly like an untraced one — and shows the same ops."""
        untraced, plain, _ = run_config(
            tmp_path, "plain", input_path, WEB_CLEAN, 2, "memory", op_fusion=True
        )
        traced, executor, _ = run_config(
            tmp_path, "traced", input_path, WEB_CLEAN, 2, "memory", op_fusion=True,
            open_tracer=True,
        )
        assert traced == untraced
        tasks = executor.last_report["parallel"]["tasks"]
        assert tasks == plain.last_report["parallel"]["tasks"] < len(executor.ops)
        assert [entry["op_name"] for entry in executor.last_report["trace"]] == [
            op.name for op in executor.ops
        ]

    @pytest.mark.parametrize("option", ["use_cache", "use_checkpoint"])
    def test_host_side_consumers_cut_segments_to_one_op(self, tmp_path, input_path, option):
        """A per-op cache or checkpoint needs every intermediate dataset on
        the host, so each op is dispatched on its own."""
        exported, executor, _dataset = run_config(
            tmp_path, "cut", input_path, WEB_CLEAN, 2, "memory", op_fusion=True, **{option: True}
        )
        reference, serial, _ = run_config(
            tmp_path, "serial", input_path, WEB_CLEAN, 1, "memory", op_fusion=True
        )
        assert exported == reference
        assert executor.last_report["parallel"]["tasks"] >= len(executor.ops)
        assert executor.last_report.op_summary() == serial.last_report.op_summary()

    def test_selector_closes_a_segment(self, tmp_path, input_path):
        process = [
            {"whitespace_normalization_mapper": {}},
            {"words_num_filter": {"min_num": 5}},
            {"topk_specified_field_selector": {"field_key": "__stats__.num_words", "topk": 120}},
            {"lowercase_mapper": {}},
            {"text_length_filter": {"min_len": 10}},
            {"document_simhash_deduplicator": {}},
        ]
        exported, executor, dataset = run_config(tmp_path, "pooled", input_path, process, 2, "memory")
        reference, serial, serial_dataset = run_config(
            tmp_path, "serial", input_path, process, 1, "memory"
        )
        assert exported == reference
        assert dataset.fingerprint == serial_dataset.fingerprint
        assert executor.last_report.op_summary() == serial.last_report.op_summary()
        # two pooled segments (2 ops; 2 ops + hashing) around the host-side selector
        assert executor.last_report["parallel"]["tasks"] <= 2 * 8


class TestPooledObservability:
    def test_pooled_op_seconds_are_worker_measured(self, tmp_path):
        input_path = write_jsonl(tmp_path / "in.jsonl", messy_corpus_rows(400, duplicates=60))
        _exported, executor, _dataset = run_config(
            tmp_path, "pooled", input_path, WEB_CLEAN, 2, "memory", op_fusion=True
        )
        report = executor.last_report
        sample_ops = [op for op in report.ops if op.op_type != "deduplicator"]
        assert all(op.calls == 1 and op.wall_time_s > 0 for op in sample_ops)
        # worker-measured op wall adds up to about the workers' CPU seconds;
        # the host round trip (fork, pickling, IPC) is not in it
        measured = sum(op.wall_time_s for op in sample_ops)
        assert measured <= report["resources"]["wall_time_s"] * 2
        assert report["parallel"]["worker_s"] > 0
        assert set(report["parallel"]) >= {"tasks", "worker_s", "dispatch_s", "worker_pids"}

    def test_serial_run_reports_zero_dispatch(self, tmp_path):
        input_path = write_jsonl(tmp_path / "in.jsonl", messy_corpus_rows(60))
        _exported, executor, _dataset = run_config(
            tmp_path, "serial", input_path, WEB_CLEAN, 1, "memory"
        )
        parallel = executor.last_report["parallel"]
        assert (parallel["tasks"], parallel["worker_s"], parallel["dispatch_s"]) == (0, 0.0, 0.0)

    def test_counters_are_per_run_on_a_reused_pool(self, tmp_path):
        input_path = write_jsonl(tmp_path / "in.jsonl", messy_corpus_rows(120))
        config = {
            "dataset_path": str(input_path),
            "work_dir": str(tmp_path / "work"),
            "process": WEB_CLEAN,
            "np": 2,
        }
        with Executor(config) as executor:
            executor.run()
            first = executor.last_report["parallel"]["tasks"]
            executor.run()
            assert executor.last_report["parallel"]["tasks"] == first > 0
