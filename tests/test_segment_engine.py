"""One way to apply sample-level ops to a batch: the segment, wherever it runs.

Counted evidence (calls, rows, tasks, ``tracemalloc`` bytes — no wall clock):

* **np = 1 executes the segment code** — a spy on
  :func:`repro.core.segment.run_segment` sees every sample-level op of the
  recipe, in order, for every chunk of a memory run and of each streaming
  shard.
* **A tracer does not change how a Filter executes** — ``filter_batched`` is
  handed the same rows traced as untraced, per-sample ``compute_stats`` runs
  only for the shown examples, at np 1 and 2; a pool is sent ``segment``
  tasks only.
* **A segment outcome is ``(batch, records, failure)``** — from
  :func:`repro.core.segment.run_chunks` and from a pool alike, one per chunk,
  in order, a failed chunk's kept beside the rest.
* **Chunks are consumed lazily** — np = 1 peak heap on long documents stays
  at or under what the per-op engine this replaced read on the same corpus.
* **The guard** — nothing else in ``src/repro`` applies an op to a batch,
  every run calls a Deduplicator's or a Selector's ``process`` only from
  the global step's :func:`repro.core.stream.resolve_global_keep`, and a
  streaming shard is built from rows once, when it is decoded.
"""

import ast
import gc
import multiprocessing
import sys
import tracemalloc
from pathlib import Path

import pytest

import repro
from repro.core import segment
from repro.core.base_op import Filter
from repro.core.batch import batch_length
from repro.core.dataset import NestedDataset
from repro.core.executor import Executor
from repro.core.tracer import Tracer
from repro.ops import load_ops
from repro.parallel import WorkerPool
from repro.synth import common_crawl_like

from tests.test_segment_dispatch import WEB_CLEAN
from tests.test_streaming import messy_corpus_rows, write_jsonl

SAMPLE_LEVEL = [next(iter(entry)) for entry in WEB_CLEAN]


@pytest.fixture
def segment_spy(monkeypatch):
    """Every in-process ``run_segment`` call as ``(op names, rows in, rows out)``."""
    calls = []
    real = segment.run_segment

    def spy(ops, batch, trace_num=0):
        rows_in = len(batch["text"])
        out, stats, failure = real(ops, batch, trace_num)
        calls.append(([op.name for op in ops], rows_in, len(out["text"]) if out else 0))
        return out, stats, failure

    monkeypatch.setattr(segment, "run_segment", spy)
    return calls


class TestSerialRunsExecuteTheSegment:
    def test_memory_run_sends_every_chunk_through_the_whole_op_list(self, segment_spy):
        dataset = NestedDataset.from_list(messy_corpus_rows(900, duplicates=100))
        executor = Executor({"process": WEB_CLEAN})
        out = executor.run(dataset)
        chunk = executor.ops[0].effective_batch_size(dataset)
        assert len(segment_spy) == -(-len(dataset) // chunk) > 1
        assert all(names == SAMPLE_LEVEL for names, _in, _out in segment_spy)
        assert sum(rows_in for _names, rows_in, _out in segment_spy) == len(dataset)
        # the closing Deduplicator only hashed in there: its clustering is global
        assert sum(rows_out for _names, _in, rows_out in segment_spy) >= len(out) > 0

    def test_every_streaming_shard_is_chunks_of_the_same_segment(self, segment_spy):
        rows = messy_corpus_rows(300, duplicates=40)
        executor = Executor({"process": WEB_CLEAN, "max_shard_rows": 64, "batch_size": 16})
        report = executor.run_streaming(NestedDataset.from_list(rows))
        shards = report["shards"]["executed_shards"]
        assert shards == -(-len(rows) // 64)
        assert all(names == SAMPLE_LEVEL for names, _in, _out in segment_spy)
        assert [rows_in for _names, rows_in, _out in segment_spy] == [
            min(16, 64 - start, len(rows) - shard * 64 - start)
            for shard in range(shards)
            for start in range(0, min(64, len(rows) - shard * 64), 16)
        ]

    def test_op_run_is_a_segment_of_one(self, segment_spy):
        (op,) = load_ops([{"text_length_filter": {"min_len": 40}}])
        dataset = NestedDataset.from_list(messy_corpus_rows(50))
        tracer = Tracer()
        kept = op.run(dataset, tracer=tracer)
        assert [names for names, _in, _out in segment_spy] == [["text_length_filter"]]
        assert tracer.summary()[0]["output_size"] == len(kept) < len(dataset)


class TestSegmentOutcomes:
    """A segment outcome is what :func:`segment.run_segment` returns,
    ``(batch, records, failure)``, in process and from the pool alike."""

    OPS = [
        {"whitespace_normalization_mapper": {}},
        {"text_length_filter": {"min_len": 40}},
        {"words_num_filter": {"min_num": 5}},
    ]

    @staticmethod
    def _chunks(rows, size):
        return list(NestedDataset.from_list(rows).iter_batches(size))

    @staticmethod
    def _counts(outcomes):
        """Everything of the outcomes but the per-op seconds."""
        return [
            (batch, [(rows_in, rows_out, flags)
                     for rows_in, rows_out, _s, _found, flags in records], failure)
            for batch, records, failure in outcomes
        ]

    def test_run_chunks_is_run_segment_per_chunk_in_order(self):
        ops = load_ops(self.OPS)
        chunks = self._chunks(messy_corpus_rows(30, duplicates=0), 8)
        # a generator: the chunks are consumed as they run
        outcomes = segment.run_chunks(ops, (chunk for chunk in chunks))
        assert all(len(outcome) == 3 for outcome in outcomes)
        assert self._counts(outcomes) == self._counts(
            [segment.run_segment(ops, chunk) for chunk in chunks]
        )

    def test_run_chunks_keeps_a_failed_chunk_and_runs_the_rest(self):
        from repro.testing import FaultPlan
        from repro.testing.chaos import ChaosFault

        ops = load_ops(self.OPS)
        FaultPlan().inject("words_num_filter", match="POISON").install(ops)
        rows = messy_corpus_rows(24, duplicates=0)
        rows[10]["text"] = "POISON " + "a long enough row of words " * 3
        outcomes = segment.run_chunks(ops, self._chunks(rows, 8))
        assert [failure is None for _batch, _records, failure in outcomes] == [True, False, True]
        _batch, records, (index, error) = outcomes[1]
        assert index == 2 and isinstance(error, ChaosFault) and len(records) == 2

    def test_run_dataset_segment_without_pool_covers_every_row(self):
        ops = load_ops(self.OPS)
        dataset = NestedDataset.from_list(messy_corpus_rows(30, duplicates=0))
        size, outcomes = segment.run_dataset_segment(ops, dataset)
        assert size == ops[0].effective_batch_size(dataset)
        assert len(outcomes) == -(-len(dataset) // size)
        assert sum(records[0][0] for _batch, records, _failure in outcomes) == len(dataset)
        whole = segment.run_segment(ops, dataset.to_dict())
        output, positions = segment.segment_output(ops, dataset, outcomes)
        assert output.to_list() == NestedDataset.from_batches([whole[0]]).to_list()
        # each output row's input position, read off the Filters' keep flags
        meta = dataset["meta"]
        assert [meta[position] for position in positions] == whole[0]["meta"]

    def test_output_positions_walk_the_pieces_in_order(self):
        ops = load_ops([{"text_length_filter": {"min_len": 5}}])
        texts = ["long one", "no", "long two", "x", "poison", "long three", "y", "long four",
                 "long five"]
        dataset = NestedDataset({"text": texts})
        first, last = segment.run_chunks(ops, [{"text": texts[:4]}, {"text": texts[5:]}])
        # the Filter's keep flags travel in its record
        assert first[1][0][4] == [True, False, True, False]
        whole = segment.run_chunks(ops, [{"text": texts}])
        clean, positions = segment.segment_output(ops, dataset, whole)
        assert positions == [0, 2, 4, 5, 7, 8]
        # a fault layer's failed one-row piece: its row is dropped, the rows after it keep their place
        failed = ({"text": texts[4:5]}, [], (0, RuntimeError("poison")))
        output, positions = segment.segment_output(ops, dataset, [first, failed, last])
        assert positions == [0, 2, 5, 7, 8]
        assert output["text"] == [texts[position] for position in positions]
        assert output.fingerprint != clean.fingerprint  # the dropped row salts it
        # a Mapper that changed a chunk's row count: no output row has one parent row
        grown = ({"text": ["a", "b"]}, [(1, 2, 0.0, [], None)], None)
        assert segment.segment_output(ops, dataset, [first, grown])[1] is None

    def test_run_dataset_segment_through_a_pool_matches_in_process(self):
        ops = load_ops(self.OPS)
        dataset = NestedDataset.from_list(messy_corpus_rows(30, duplicates=0))
        _size, serial = segment.run_dataset_segment(ops, dataset)
        with WorkerPool(2, ops=ops) as pool:
            size, pooled = segment.run_dataset_segment(ops, dataset, pool=pool)
            assert size == pool.chunk_size_for(len(dataset))
            assert pool.tasks == len(pooled) and pool.last_served_pids
        assert all(len(outcome) == 3 and outcome[2] is None for outcome in pooled)
        serial_out, serial_positions = segment.segment_output(ops, dataset, serial)
        pooled_out, pooled_positions = segment.segment_output(ops, dataset, pooled)
        assert pooled_out.to_list() == serial_out.to_list()
        assert pooled_out.fingerprint == serial_out.fingerprint
        assert pooled_positions == serial_positions


def counted(ops, method_name, weigh):
    """Per Filter, the summed ``weigh(argument)`` of every entry into
    ``method_name`` — counted across forked workers (shared memory)."""
    counters = {}
    for op in ops:
        if not isinstance(op, Filter):
            continue
        counter = counters[op.name] = multiprocessing.Value("i", 0)

        def counting(payload, *args, _real=getattr(op, method_name), _counter=counter, **kwargs):
            with _counter.get_lock():
                _counter.value += weigh(payload)
            return _real(payload, *args, **kwargs)

        setattr(op, method_name, counting)
    return counters


class TestTracerDoesNotChangeExecution:
    TRACE_NUM = 3

    def run(self, tmp_path, np, traced, monkeypatch):
        kinds = set()
        real_map = WorkerPool._supervised_map

        def recording_map(pool, tasks):
            kinds.update(kind for kind, _refs, _batch, _trace_num in tasks)
            return real_map(pool, tasks)

        monkeypatch.setattr(WorkerPool, "_supervised_map", recording_map)
        config = {
            "process": WEB_CLEAN,
            "np": np,
            "batch_size": 50,
            "open_tracer": traced,
            "trace_num": self.TRACE_NUM,
            "work_dir": str(tmp_path / f"work-{np}-{int(traced)}"),
        }
        with Executor(config) as executor:
            batched = counted(executor.ops, "filter_batched", batch_length)
            per_sample = counted(executor.ops, "compute_stats", lambda sample: 1)
            out = executor.run(NestedDataset.from_list(messy_corpus_rows(400, duplicates=60)))
            trace = executor.last_report["trace"]
        return (
            out.to_list(),
            {name: counter.value for name, counter in batched.items()},
            {name: counter.value for name, counter in per_sample.items()},
            kinds,
            trace,
        )

    @pytest.mark.parametrize("np", [1, 2])
    def test_traced_filters_take_the_untraced_path(self, tmp_path, np, monkeypatch):
        plain_rows, plain_batched, plain_samples, _kinds, _trace = self.run(
            tmp_path, np, False, monkeypatch
        )
        rows, batched, samples, kinds, trace = self.run(tmp_path, np, True, monkeypatch)
        assert rows == plain_rows
        # every Filter was handed each of its input rows once, through the
        # short-circuiting entry, traced or not (chunking differs, work does not)
        assert len(batched) == 9 and all(batched.values())
        assert batched == plain_batched
        assert batched == {
            entry["op_name"]: entry["input_size"] for entry in trace if entry["op_type"] == "filter"
        }
        assert set(plain_samples.values()) == {0}
        dropped = {
            entry["op_name"]: entry["removed"] for entry in trace if entry["op_type"] == "filter"
        }
        assert any(dropped.values())
        assert samples == {
            name: min(self.TRACE_NUM, dropped[name]) for name in samples
        }
        assert kinds == ({"segment"} if np > 1 else set())


def long_documents(rows=320, span=6):
    """Distinct ~8.6k-character documents that survive the web-clean filters."""
    base = [row["text"] for row in common_crawl_like(num_samples=rows + span, seed=5)]
    return [{"text": " ".join(base[i:i + span]) + f" doc {i}"} for i in range(rows)]


def test_serial_peak_heap_on_long_documents_is_no_higher_than_the_per_op_engine():
    """Chunks are sized by the char-adaptive batch rule and consumed lazily:
    inside the segment only one chunk's intermediates are alive beside the
    output.  The bound is what the per-op engine (every op a pass over the
    whole dataset, so two corpus copies alive in a mapper) read on this
    2.8 M-character corpus at the commit that removed it: 5.65 MB, against
    4.7 here (fixed 1000-row chunks read 5.65 again)."""
    rows = long_documents()
    executor = Executor({"process": WEB_CLEAN})
    executor.run(NestedDataset.from_list(rows[:20]))  # load assets outside the window
    dataset = NestedDataset.from_list(rows)
    gc.collect()
    tracemalloc.start()
    try:
        out = executor.run(dataset)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(out) > 300
    assert peak <= 5.65e6


SEGMENT_METHODS = {"process_batched", "filter_batched", "compute_hash_batched"}

#: where an op's batched methods may be referenced: the ops themselves, the
#: per-row defaults, a fused filter's member fan-out, test support — and the
#: one segment module
ALLOWED = ("ops/", "core/base_op.py", "core/fusion.py", "testing/", "core/segment.py")


def test_only_the_segment_module_applies_ops_to_a_batch():
    """A second op-application path fails here in the PR that adds it."""
    root = Path(repro.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root).as_posix()
        if relative.startswith(ALLOWED):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in SEGMENT_METHODS:
                offenders.append(f"{relative}:{node.lineno} .{node.attr}")
    assert offenders == []
    # and inside the segment module, exactly one function does
    tree = ast.parse((root / "core/segment.py").read_text(encoding="utf-8"))
    callers = {
        function.name
        for function in tree.body
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Attribute) and node.attr in SEGMENT_METHODS
    }
    assert callers == {"apply_op"}


@pytest.mark.parametrize("use_cache", [False, True], ids=["spill", "cache"])
@pytest.mark.parametrize("np_", [1, 2])
def test_a_streaming_shard_is_one_dataset_from_decode_to_export(
    tmp_path, monkeypatch, np_, use_cache
):
    """A second shard shape fails here in the change that adds it: rows
    become a shard once, when an input shard is decoded, and no stage turns
    a shard back into rows — only the exporter iterates them."""
    calls = {"from_list": 0, "to_list": 0}
    from_list, to_list = NestedDataset.from_list.__func__, NestedDataset.to_list

    def counted_from_list(cls, *args, **kwargs):
        calls["from_list"] += 1
        return from_list(cls, *args, **kwargs)

    def counted_to_list(self):
        calls["to_list"] += 1
        return to_list(self)

    config = {
        "dataset_path": str(write_jsonl(tmp_path / "in.jsonl", messy_corpus_rows(120))),
        "export_path": str(tmp_path / "out.jsonl"),
        "process": [
            {"words_num_filter": {"min_num": 1}},
            {"document_deduplicator": {}},
            {"topk_specified_field_selector": {"field_key": "__stats__.num_words", "topk": 90}},
            {"lowercase_mapper": {}},
        ],
        "work_dir": str(tmp_path / "work"),
        "np": np_,
        "max_shard_rows": 40,
        "use_cache": use_cache,
    }
    monkeypatch.setattr(NestedDataset, "from_list", classmethod(counted_from_list))
    monkeypatch.setattr(NestedDataset, "to_list", counted_to_list)
    with Executor(config) as executor:
        report = executor.run_streaming()
    shards = report["shards"]
    assert report["faults"]["op_errors"] == {}
    assert shards["decoded_shards"] == shards["input_shards"] > 3
    assert calls == {"from_list": shards["decoded_shards"], "to_list": 0}
    assert report["num_output_samples"] == 90


#: the three built-in Deduplicators and a Selector, each with a say in the output
GLOBAL_OPS = [
    {"document_deduplicator": {}},
    {"document_minhash_deduplicator": {}},
    {"document_simhash_deduplicator": {}},
    {"topk_specified_field_selector": {"field_key": "__stats__.num_words", "top_ratio": 0.9}},
]


@pytest.mark.parametrize("np_", [1, 2])
@pytest.mark.parametrize("mode", ["memory", "streaming"])
def test_only_the_global_step_calls_a_dataset_level_process(tmp_path, monkeypatch, mode, np_):
    """A second global-step path fails here in the change that adds it."""
    from repro.core.registry import OPERATORS

    callers = []
    for entry in GLOBAL_OPS:
        cls = OPERATORS.get(next(iter(entry)))

        def spy(self, *args, _process=cls.process, **kwargs):
            callers.append((self.name, sys._getframe(1).f_code.co_name))
            return _process(self, *args, **kwargs)

        monkeypatch.setattr(cls, "process", spy)
    config = {
        "process": [{"words_num_filter": {"min_num": 1}}, *GLOBAL_OPS],
        "work_dir": str(tmp_path / "work"),
        "np": np_,
        "max_shard_rows": 40,
    }
    rows = NestedDataset.from_list(messy_corpus_rows(120, duplicates=20))
    with Executor(config) as executor:
        if mode == "memory":
            executor.run(rows)
        else:
            executor.run_streaming(rows)
    assert sorted({name for name, _caller in callers}) == sorted(
        next(iter(entry)) for entry in GLOBAL_OPS
    )
    assert {caller for _name, caller in callers} == {"resolve_global_keep"}
