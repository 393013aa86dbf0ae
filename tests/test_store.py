"""The one content-addressed store: the cache is the checkpoint is the spill.

Three layers under test:

* the store itself (:class:`repro.core.cache.CacheManager`): payload-agnostic
  ``put`` / ``get`` / ``has`` / ``total_bytes``, lossless pickled entries,
  atomic uniquely-named temp writes, and every unreadable entry reading as a
  miss; and where a run's entries live (:class:`repro.core.cache.RunStore`):
  a clean key in the cache, which no run deletes from, anything else in the
  run's own store, which keeps only what the run's root names;
* the checkpoint state file (:class:`repro.core.checkpoint.CheckpointManager`):
  a small pointer at a store key, corrupt reads as absent;
* the executor over both: ONE export sha on the three fig8 recipes across
  {memory, streaming} x {cache only, checkpoint only, both} x {cold, warm,
  crash-resumed}; fault-shaped output is progress for its own checkpoint but
  never served to a clean run; a truncated entry and a corrupt state file both
  mean "start over"; an edited input invalidates a memory-mode resume; and with
  cache + checkpoint every op/shard output is written exactly once.
"""

import os
import pickle
import struct
import sys
import threading

import pytest

from repro.core.cache import (
    CacheManager,
    RunStore,
    atomic_write,
    available_codecs,
    decode,
    encode,
    estimate_cache_space,
    estimate_checkpoint_space,
)
from repro.core.checkpoint import CheckpointManager
from repro.core.dataset import NestedDataset
from repro.core.errors import ConfigError, OpExecutionError, ReproError
from repro.core.executor import Executor
from repro.core.sample import HashKeys
from repro.core.stream import StreamSegment, op_config_hash, stage_chain_hash
from repro.ops import build_ops
from repro.ops.deduplicators.document_minhash_deduplicator import DocumentMinhashDeduplicator
from repro.recipes import get_recipe
from repro.testing import FaultPlan

from tests.test_streaming import FIG8_RECIPES, messy_corpus_rows, write_jsonl


def dataset():
    return NestedDataset.from_list([{"text": "hello world " * 20, "meta": {"n": 1}}] * 10)


def entry_files(directory):
    return sorted(directory.glob("entry-*"))


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
class TestCacheManager:
    def test_put_and_get_roundtrip_a_dataset(self, tmp_path):
        store = CacheManager(tmp_path)
        key = CacheManager.make_key("fp", "op", {"a": 1})
        store.put(key, dataset())
        loaded = store.get(key)
        assert loaded == dataset()
        assert loaded.fingerprint == dataset().fingerprint

    def test_put_and_get_roundtrip_shard_rows(self, tmp_path):
        store = CacheManager(tmp_path / "spill")
        rows = [{"text": "a", "n": 1}, {"text": "b", "n": 2}]
        key = CacheManager.make_shard_key("chain", "shard-signature")
        store.put(key, rows)
        assert store.has(key)
        assert store.get(key) == rows
        assert not store.has(CacheManager.make_shard_key("chain", "another-shard"))

    def test_miss_returns_none(self, tmp_path):
        store = CacheManager(tmp_path / "never-created")
        assert store.get("missing") is None
        assert not store.has("missing")
        assert store.total_bytes() == 0

    def test_entries_are_lossless(self, tmp_path):
        """Tuples stay tuples and bytes stay bytes (JSON would hand back lists/reprs)."""
        store = CacheManager(tmp_path)
        rows = [{"text": "a", "pair": (1, 2), "blob": b"\x00raw", "tags": {"x", "y"}}]
        store.put("k", rows)
        loaded = store.get("k")
        assert loaded == rows
        assert type(loaded[0]["pair"]) is tuple and type(loaded[0]["blob"]) is bytes

    @pytest.mark.parametrize("codec", ["zlib", "gzip", "lzma", "bz2"])
    def test_compression_roundtrip(self, tmp_path, codec):
        store = CacheManager(tmp_path, compression=codec)
        store.put("k", dataset())
        assert store.get("k") == dataset()

    def test_compression_reduces_size(self, tmp_path):
        plain = CacheManager(tmp_path / "plain", compression="none")
        compressed = CacheManager(tmp_path / "zlib", compression="zlib")
        plain.put("k", dataset())
        compressed.put("k", dataset())
        assert compressed.total_bytes() < plain.total_bytes()

    def test_unknown_codec_raises(self, tmp_path):
        with pytest.raises(ReproError):
            CacheManager(tmp_path, compression="zstd-but-wrong")

    def test_available_codecs_contains_none(self):
        assert "none" in available_codecs()

    def test_keys_depend_on_every_part(self):
        assert CacheManager.make_key("fp", "op", {"a": 1}) != CacheManager.make_key(
            "fp", "op", {"a": 2}
        )
        assert CacheManager.make_key("fp", "op", {"a": 1}) != CacheManager.make_key(
            "fp2", "op", {"a": 1}
        )
        assert CacheManager.make_shard_key("c", "s") != CacheManager.make_shard_key("c", "t")
        assert CacheManager.make_shard_key("c", "s") != CacheManager.make_shard_key("d", "s")

    @pytest.mark.parametrize("damage", ["truncated", "garbage", "empty", "other-codec"])
    def test_unreadable_entry_is_a_miss_and_is_overwritten(self, tmp_path, damage):
        store = CacheManager(tmp_path)
        path = store.put("k", dataset())
        if damage == "truncated":
            path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        elif damage == "garbage":
            path.write_bytes(b"this was never a pickle")
        elif damage == "empty":
            path.write_bytes(b"")
        else:
            store = CacheManager(tmp_path, compression="lzma")
        assert store.get("k") is None
        store.put("k", dataset())
        assert store.get("k") == dataset()


class TestAtomicWrites:
    def test_no_temp_file_is_left_behind(self, tmp_path):
        atomic_write(tmp_path / "target.json", b"{}")
        assert [path.name for path in tmp_path.iterdir()] == ["target.json"]

    def test_failed_write_keeps_the_previous_target(self, tmp_path):
        target = tmp_path / "target.json"
        atomic_write(target, b"old")
        with pytest.raises(TypeError):
            atomic_write(target, "not bytes")
        assert target.read_bytes() == b"old"
        assert [path.name for path in tmp_path.iterdir()] == ["target.json"]

    def test_concurrent_same_key_puts_never_tear_an_entry(self, tmp_path):
        """Regression: a fixed ``<entry>.tmp`` name let two writers of one key
        truncate each other's temp file, so a reader could unpickle a torn
        entry.  Every writer stores a self-consistent payload; every read must
        see one of them whole (or, before the first write, a miss)."""
        store = CacheManager(tmp_path)
        writers, readers, rounds = 4, 4, 60
        torn: list = []
        errors: list = []
        start = threading.Barrier(writers + readers)

        def write(worker: int) -> None:
            try:
                start.wait(timeout=30)
                for round_ in range(rounds):
                    store.put("shared", [{"text": f"w{worker}r{round_}" * 200}] * 50)
            except Exception as error:  # noqa: BLE001 - reported by the assertion below
                errors.append(error)

        def read() -> None:
            try:
                start.wait(timeout=30)
                for _ in range(rounds):
                    rows = store.get("shared")
                    if rows is not None and (len(rows) != 50 or len({r["text"] for r in rows}) != 1):
                        torn.append(rows)
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        threads = [threading.Thread(target=write, args=(n,)) for n in range(writers)]
        threads += [threading.Thread(target=read) for _ in range(readers)]
        assert len(threads) > (os.cpu_count() or 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [] and torn == []
        assert len(store.get("shared")) == 50
        # every temp file was either renamed into place or removed
        assert [path.name for path in entry_files(tmp_path)] == [store._path_for("shared").name]


class TestSpaceEstimates:
    def test_cache_mode_formula(self):
        # (1 + M + F + I(F>0) + D) * S  — Appendix A.2
        assert estimate_cache_space(100, num_mappers=2, num_filters=3, num_dedups=1) == 800

    def test_cache_mode_without_filters(self):
        assert estimate_cache_space(100, num_mappers=2, num_filters=0, num_dedups=0) == 300

    def test_checkpoint_mode_is_three_copies(self):
        assert estimate_checkpoint_space(100) == 300

    def test_checkpoint_mode_below_cache_mode_for_long_pipelines(self):
        cache = estimate_cache_space(100, num_mappers=5, num_filters=8, num_dedups=1)
        assert estimate_checkpoint_space(100) < cache


class TestRunStore:
    def test_a_key_lives_where_its_suffix_says(self, tmp_path):
        cache, own = CacheManager(tmp_path / "cache"), CacheManager(tmp_path / "own")
        stores = RunStore(cache, own)
        assert stores.place("k") is cache and stores.place("k#faulted") is own
        assert RunStore(None, own).place("k") is own
        own.put("k#faulted", [1])
        assert stores.get("k#faulted") == [1] and stores.get("k") is None

    def test_retain_keeps_only_the_root_of_the_own_store(self, tmp_path):
        cache, own = CacheManager(tmp_path / "cache"), CacheManager(tmp_path / "own")
        stores = RunStore(cache, own)
        for key in ("a", "b", "c#faulted"):
            cache.put(key, [key])
            own.put(key, [key])
        (tmp_path / "own" / "entry-stray.pkl.0123.tmp").write_bytes(b"torn")
        (tmp_path / "own" / CheckpointManager.STATE_FILE).write_text("{}")  # not an entry
        stores.retain(["b", "c#faulted", "never-written"])
        assert [own.get(key) for key in ("a", "b", "c#faulted")] == [None, ["b"], ["c#faulted"]]
        assert len(entry_files(tmp_path / "own")) == 2
        assert (tmp_path / "own" / CheckpointManager.STATE_FILE).exists()
        # the cache keeps everything
        assert len(entry_files(tmp_path / "cache")) == 3
        stores.retain(())
        assert entry_files(tmp_path / "own") == [] and len(entry_files(tmp_path / "cache")) == 3
        RunStore(cache, None).retain(())  # no own store: nothing to do

    def test_the_cache_is_never_a_run_s_own_store(self, tmp_path):
        shared = str(tmp_path / "store")
        with pytest.raises(ConfigError, match="cache_dir and checkpoint_dir must differ"):
            Executor({"process": [{"lowercase_mapper": {}}], "use_cache": True,
                      "use_checkpoint": True, "cache_dir": shared, "checkpoint_dir": shared})


# ----------------------------------------------------------------------
# The checkpoint state file
# ----------------------------------------------------------------------
class TestCheckpointManager:
    def test_write_and_read_state(self, tmp_path):
        manager = CheckpointManager(tmp_path / "ckpt")
        state = {"op_index": 2, "op_names": ["a", "b", "c"], "key": "k", "input": "fp"}
        manager.write_state(state)
        assert manager.read_state() == state
        assert [path.name for path in (tmp_path / "ckpt").iterdir()] == [
            CheckpointManager.STATE_FILE
        ]

    def test_absent_state_reads_none(self, tmp_path):
        assert CheckpointManager(tmp_path).read_state() is None

    @pytest.mark.parametrize("garbage", ["{ truncated", "", "[1, 2]", "\xff\xfe"])
    def test_corrupt_state_reads_none(self, tmp_path, garbage):
        manager = CheckpointManager(tmp_path)
        (tmp_path / CheckpointManager.STATE_FILE).write_bytes(garbage.encode("latin-1"))
        assert manager.read_state() is None


# ----------------------------------------------------------------------
# The executor over the store: one export sha however a run persists
# ----------------------------------------------------------------------
MARKER = "velociraptor"
MARKER_ROW = {
    "text": "The quiet velociraptor walked through the ancient library reading every "
    "dusty page while the patient librarian watched carefully from behind the long "
    "wooden desk and smiled at the curious visitor asking thoughtful questions about "
    "natural history and early reptile anatomy.",
    "meta": {"n": -1},
}
#: a mapper in the middle of every fig8 recipe (and of its first streaming stage)
CRASH_OP = "remove_non_printable_mapper"
SHARD_ROWS = 50
PERSISTENCE = {
    "cache": {"use_cache": True},
    "checkpoint": {"use_checkpoint": True},
    "both": {"use_cache": True, "use_checkpoint": True},
}


def corpus_rows():
    """Messy rows with one marker row inside the third input shard."""
    rows = messy_corpus_rows(160, duplicates=30)
    rows.insert(2 * SHARD_ROWS + 7, dict(MARKER_ROW))
    return rows


def run(tmp_path, tag, input_path, process, mode, work="work", prepare=None, **options):
    """One run in ``mode`` over ``<tmp_path>/<work>``; returns (export bytes, executor)."""
    config = {
        "dataset_path": str(input_path),
        "export_path": str(tmp_path / f"{tag}.jsonl"),
        "work_dir": str(tmp_path / work),
        "process": process,
        "max_shard_rows": SHARD_ROWS,
        **options,
    }
    executor = Executor(config)
    if prepare is not None:
        prepare(executor)
    if mode == "memory":
        executor.run()
    else:
        executor.run_streaming()
    return (tmp_path / f"{tag}.jsonl").read_bytes(), executor


def stored_op_names(executor):
    """Names of every op whose work the store can replay (fused members included)."""
    names = set()
    for op in executor.ops:
        names.add(op.name)
        names.update(member.name for member in getattr(op, "fused_filters", ()))
    return names


def forbid(names):
    """A ``prepare`` hook: executing any of the named ops' sample stages crashes the run."""

    def prepare(executor):
        plan = FaultPlan()
        for name in names:
            plan.inject(name)
        plan.install(executor.ops)

    return prepare


def forbid_everything(executor):
    forbid(stored_op_names(executor))(executor)


def crash_at_marker(executor):
    FaultPlan().inject(CRASH_OP, match=MARKER).install(executor.ops)


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    return write_jsonl(tmp_path_factory.mktemp("store-corpus") / "in.jsonl", corpus_rows())


class TestOneExportHoweverARunPersists:
    @pytest.mark.parametrize("persistence", sorted(PERSISTENCE))
    @pytest.mark.parametrize("mode", ["memory", "streaming"])
    @pytest.mark.parametrize("recipe_name", FIG8_RECIPES)
    def test_cold_warm_and_crash_resumed_runs_export_the_same_bytes(
        self, tmp_path, input_path, recipe_name, mode, persistence
    ):
        process = get_recipe(recipe_name)["process"]
        options = PERSISTENCE[persistence]
        reference, plain = run(tmp_path, "reference", input_path, process, "memory", work="plain")
        assert reference
        num_ops = len(plain.ops)

        # cold, then warm: the warm run replays the store and executes no operator
        cold, first = run(tmp_path, "cold", input_path, process, mode, **options)
        warm, second = run(
            tmp_path, "warm", input_path, process, mode, prepare=forbid_everything, **options
        )
        assert cold == reference and warm == reference
        assert first.last_report["cache"]["hits"] == first.last_report["cache"]["shard_hits"] == 0
        report = second.last_report
        if mode == "memory":
            assert report["cache"]["hits"] == (num_ops if persistence == "cache" else 0)
            if "use_checkpoint" in options:
                assert second.checkpoint.read_state()["op_index"] == num_ops
        else:
            assert report["shards"]["executed_shards"] == 0
            replayed = "cached_shards" if persistence == "cache" else "resumed_shards"
            assert report["shards"][replayed] >= report["shards"]["input_shards"] > 2
            assert (report["cache"]["shard_hits"] > 0) == (persistence == "cache")

        # crash mid-recipe (memory) / mid-corpus (streaming), then run again
        with pytest.raises(OpExecutionError, match=CRASH_OP):
            run(tmp_path, "crashed", input_path, process, mode, work="crash",
                prepare=crash_at_marker, **options)
        op_names = [op.name for op in plain.ops]
        done_before_crash = op_names[: op_names.index(CRASH_OP)]
        resumed, third = run(
            tmp_path, "resumed", input_path, process, mode, work="crash",
            # memory mode finished whole ops before the crash: none of them may run again
            prepare=forbid(done_before_crash) if mode == "memory" else None, **options,
        )
        assert resumed == reference
        report = third.last_report
        if mode == "memory":
            assert report["cache"]["hits"] == (
                len(done_before_crash) if persistence == "cache" else 0
            )
        else:
            replayed = "cached_shards" if persistence == "cache" else "resumed_shards"
            # the two shards before the marker's were stored before the crash
            assert report["shards"][replayed] >= 2
            assert report["shards"]["executed_shards"] > 0


class TestFaultShapedOutput:
    """Checkpointed as the faulted run's progress, never served to a clean run."""

    @pytest.mark.parametrize("mode", ["memory", "streaming"])
    def test_faulted_run_resumes_but_a_clean_run_recomputes(self, tmp_path, input_path, mode):
        process = get_recipe("pretrain-c4-refine-en")["process"]
        shared = {"use_cache": True, "cache_dir": str(tmp_path / "shared-cache")}
        reference, _ = run(tmp_path, "reference", input_path, process, "memory", work="plain")

        faulted, executor = run(
            tmp_path, "faulted", input_path, process, mode, work="faulted",
            prepare=crash_at_marker, on_error="skip", use_checkpoint=True, **shared,
        )
        assert executor.last_report["faults"]["skipped_rows"] == 1
        assert MARKER.encode() in reference and MARKER.encode() not in faulted

        # the same checkpointed run again: its fault-shaped progress is reused
        again, _ = run(
            tmp_path, "again", input_path, process, mode, work="faulted",
            prepare=forbid_everything, on_error="skip", use_checkpoint=True, **shared,
        )
        assert again == faulted

        # a clean run sharing the cache never sees the faulted rows' absence
        clean, executor = run(tmp_path, "clean", input_path, process, mode, work="clean", **shared)
        assert clean == reference
        assert executor.last_report["faults"]["skipped_rows"] == 0


class TestStartOver:
    """A truncated entry or a corrupt state file means "start over", never a crash."""

    PROCESS = get_recipe("pretrain-books-refine-en")["process"]

    @pytest.mark.parametrize("mode", ["memory", "streaming"])
    def test_truncated_entries(self, tmp_path, input_path, mode):
        options = {"use_checkpoint": True}
        reference, first = run(tmp_path, "first", input_path, self.PROCESS, mode, **options)
        entries = entry_files(tmp_path / "work" / "checkpoint")
        assert entries
        for path in entries:
            path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        again, second = run(tmp_path, "again", input_path, self.PROCESS, mode, **options)
        assert again == reference
        if mode == "memory":
            assert all(op["calls"] == 1 and op["cached_calls"] == 0
                       for op in second.last_report["ops"])
        else:
            assert second.last_report["shards"]["resumed_shards"] == 0
            assert second.last_report["shards"]["executed_shards"] > 0
        # the rewritten entries serve the next resume
        third, _ = run(tmp_path, "third", input_path, self.PROCESS, mode,
                       prepare=forbid_everything, **options)
        assert third == reference

    @pytest.mark.parametrize("mode", ["memory", "streaming"])
    def test_corrupt_state_file(self, tmp_path, input_path, mode):
        options = {"use_checkpoint": True}
        reference, first = run(tmp_path, "first", input_path, self.PROCESS, mode, **options)
        state_path = tmp_path / "work" / "checkpoint" / CheckpointManager.STATE_FILE
        good_state = first.checkpoint.read_state()
        state_path.write_text("{ truncated garbage", encoding="utf-8")
        again, second = run(tmp_path, "again", input_path, self.PROCESS, mode, **options)
        assert again == reference
        if mode == "streaming":
            assert second.last_report["shards"]["resumed_shards"] == 0
        assert second.checkpoint.read_state() == good_state


class TestHashCellFormatIsPartOfTheKey:
    """Store keys carry no payload version; a stored shard carries hash cells."""

    PROCESS = [{"whitespace_normalization_mapper": {}}, {"document_minhash_deduplicator": {}}]

    def test_a_store_of_the_older_minhash_cells_is_a_miss_not_a_crash(
        self, tmp_path, input_path, monkeypatch
    ):
        reference, _ = run(tmp_path, "reference", input_path, self.PROCESS, "streaming", work="plain")
        cache_dir = tmp_path / "work" / "cache"
        # a cache_dir as the list-of-ints format left it: keys without a
        # version, 64 boxed ints per cell
        with monkeypatch.context() as older:
            older.setattr(DocumentMinhashDeduplicator, "HASH_FORMAT", 0)
            run(tmp_path, "older", input_path, self.PROCESS, "streaming", use_cache=True)
            old_entries = entry_files(cache_dir)
            for path in old_entries:
                shard = decode(None, pickle.loads(path.read_bytes()))
                shard._columns[HashKeys.minhash] = [
                    list(struct.unpack("<64I", cell)) for cell in shard.column(HashKeys.minhash)
                ]
                path.write_bytes(pickle.dumps(encode(None, shard)))
            # replayed into the array clustering, those cells end the run
            with pytest.raises(OpExecutionError, match="document_minhash_deduplicator"):
                run(tmp_path, "stale", input_path, self.PROCESS, "streaming", use_cache=True)
        again, executor = run(tmp_path, "again", input_path, self.PROCESS, "streaming", use_cache=True)
        assert again == reference
        report = executor.last_report
        assert report["cache"]["shard_hits"] == 0
        assert report["shards"]["executed_shards"] == report["shards"]["input_shards"] > 2
        assert len(entry_files(cache_dir)) == 2 * len(old_entries)

    def test_a_row_list_entry_reads_as_a_miss_and_is_overwritten(self, tmp_path, input_path):
        """A shard entry is the self-contained :func:`encode` entry; the
        pickled row list older stores hold under the same keys is a miss."""
        process = [{"whitespace_normalization_mapper": {}}, {"document_deduplicator": {}},
                   {"lowercase_mapper": {}}]
        cold, _ = run(tmp_path, "cold", input_path, process, "streaming", use_cache=True)
        entries = entry_files(tmp_path / "work" / "cache")
        for path in entries:
            rows = list(decode(None, pickle.loads(path.read_bytes())))
            path.write_bytes(pickle.dumps(rows))
        again, executor = run(tmp_path, "again", input_path, process, "streaming", use_cache=True)
        assert again == cold
        assert executor.last_report["cache"]["shard_hits"] == 0
        assert executor.last_report["cache"]["shard_misses"] == len(entries)
        assert entry_files(tmp_path / "work" / "cache") == entries
        assert all(decode(None, pickle.loads(path.read_bytes())) is not None for path in entries)

    def test_only_a_bumped_format_changes_a_stage_key(self):
        from repro.core.dataset import _stable_hash

        formats = {}
        for name in ("document_deduplicator", "document_minhash_deduplicator",
                     "document_simhash_deduplicator"):
            mapper, dedup = build_ops([{"lowercase_mapper": {}}, {name: {}}])
            unversioned = _stable_hash([op_config_hash(mapper), "hash:" + op_config_hash(dedup)])
            chain = stage_chain_hash(StreamSegment([mapper], dedup))
            assert (chain == unversioned) == (dedup.HASH_FORMAT == 0)
            formats[name] = dedup.HASH_FORMAT
        assert formats == {
            "document_deduplicator": 0,
            "document_minhash_deduplicator": 1,
            "document_simhash_deduplicator": 0,
        }


class TestMemoryResumeGuards:
    def test_input_edit_invalidates_memory_checkpoint(self, tmp_path):
        """Regression: memory-mode resume validated op names + config hashes but
        never the input, so editing in.jsonl between two ``use_checkpoint`` runs
        silently exported the OLD rows (the streaming twin of this test is
        ``test_input_edit_invalidates_stream_checkpoint``)."""
        rows = messy_corpus_rows(100)
        path = write_jsonl(tmp_path / "in.jsonl", rows)
        process = [
            {"whitespace_normalization_mapper": {}},
            {"text_length_filter": {"min_len": 40}},
            {"document_deduplicator": {}},
        ]
        first, _ = run(tmp_path, "out", path, process, "memory", use_checkpoint=True)
        assert b"completely new" not in first

        write_jsonl(path, [{"text": "completely new " + row["text"], "meta": row["meta"]}
                           for row in rows])
        second, executor = run(tmp_path, "out", path, process, "memory", use_checkpoint=True)
        assert second.startswith(b'{"text": "completely new')
        assert all(op["calls"] == 1 for op in executor.last_report["ops"])
        # checkpoint-only keeps the latest entry only: the old run's is gone
        assert len(entry_files(tmp_path / "work" / "checkpoint")) == 1

    @pytest.mark.parametrize("persistence", ["cache", "checkpoint"])
    def test_a_row_the_fingerprint_probe_skips_is_part_of_the_input(self, tmp_path, persistence):
        """Regression: the input fingerprint looked at rows 0, n//2 and n-1
        only, so an edit to row 3 kept every store key and the checkpoint's
        ``input``, and the edited run exported the old row."""
        rows = [{"text": f"Document number {n} with words"} for n in range(20)]
        path = write_jsonl(tmp_path / "in.jsonl", rows)
        process = [{"lowercase_mapper": {}}, {"text_length_filter": {"min_len": 5}}]
        run(tmp_path, "first", path, process, "memory", **PERSISTENCE[persistence])
        rows[3] = {"text": "A completely different row"}
        write_jsonl(path, rows)
        cold, _ = run(tmp_path, "cold", path, process, "memory", work="plain")
        edited, executor = run(tmp_path, "edited", path, process, "memory",
                               **PERSISTENCE[persistence])
        assert b"a completely different row" in edited
        assert edited == cold
        assert all(op["calls"] == 1 for op in executor.last_report["ops"])

    @pytest.mark.parametrize("source", ["dataset", "csv"])
    @pytest.mark.parametrize("mode", ["memory", "streaming"])
    def test_inputs_differing_only_in_column_order_share_no_entry(self, tmp_path, mode, source):
        """Regression: rows of a caller's dataset or a CSV signed as their
        JSON with sorted keys, so input ``id, text`` replayed the stored
        ``text, id`` columns of another input."""
        base = [{"text": f"Document Number {n}", "id": str(n)} for n in range(12)]

        def run_input(tag, order, **options):
            rows = [{name: row[name] for name in order} for row in base]
            config = {
                "export_path": str(tmp_path / f"{tag}.jsonl"),
                "work_dir": str(tmp_path / ("work" if options else tag)),
                "process": [{"lowercase_mapper": {}}],
                "max_shard_rows": 5,
                **options,
            }
            if source == "csv":
                path = tmp_path / f"{tag}.csv"
                path.write_text(",".join(order) + "\n"
                                + "".join(",".join(row.values()) + "\n" for row in rows))
                config["dataset_path"] = str(path)
                dataset = None
            else:
                dataset = NestedDataset.from_list(rows)
            executor = Executor(config)
            executor.run(dataset) if mode == "memory" else executor.run_streaming(dataset)
            return (tmp_path / f"{tag}.jsonl").read_bytes()

        run_input("first", ("text", "id"), use_cache=True)
        cold = run_input("cold", ("id", "text"))
        warm = run_input("warm", ("id", "text"), use_cache=True)
        assert cold.startswith(b'{"id": "0"')
        assert warm == cold

    @pytest.mark.parametrize("persistence", ["cache", "checkpoint"])
    def test_warm_and_resumed_datasets_are_lossless(self, tmp_path, persistence):
        """The JSON op cache / jsonl checkpoint handed a warm or resumed run
        lists where the cold run had tuples, and ``repr`` strings for bytes."""
        data = NestedDataset.from_list(
            [{"text": f"document  number {n}", "meta": {"pair": (n, n + 1), "blob": b"\x00raw"}}
             for n in range(5)]
        )
        config = {
            "process": [{"whitespace_normalization_mapper": {}}],
            "work_dir": str(tmp_path / "work"),
            **PERSISTENCE[persistence],
        }
        cold = Executor(config).run(data)
        warm_executor = Executor(config)
        forbid_everything(warm_executor)
        warm = warm_executor.run(data)
        assert warm == cold and warm.fingerprint == cold.fingerprint
        assert warm[0]["meta"] == {"pair": (0, 1), "blob": b"\x00raw"}
        assert type(warm[0]["meta"]["pair"]) is tuple and type(warm[0]["meta"]["blob"]) is bytes


def tree_bytes(root, skip=("report.json",)):
    return sum(
        path.stat().st_size for path in root.rglob("*") if path.is_file() and path.name not in skip
    )


class TestWrittenExactlyOnce:
    @pytest.mark.parametrize("mode", ["memory", "streaming"])
    def test_cache_plus_checkpoint_costs_only_the_state_file(self, tmp_path, input_path, mode):
        process = get_recipe("pretrain-c4-refine-en")["process"]
        run(tmp_path, "cache", input_path, process, mode, work="work-a", use_cache=True)
        _, both = run(tmp_path, "both", input_path, process, mode, work="work-b",
                      use_cache=True, use_checkpoint=True)
        state_file = tmp_path / "work-b" / "checkpoint" / CheckpointManager.STATE_FILE
        cache_only = tree_bytes(tmp_path / "work-a")
        assert cache_only > 0
        assert tree_bytes(tmp_path / "work-b") <= cache_only + state_file.stat().st_size
        # nothing but the pointer lives in the checkpoint directory
        assert [path.name for path in (tmp_path / "work-b" / "checkpoint").iterdir()] == [
            CheckpointManager.STATE_FILE
        ]
        assert both.store.cache_dir == tmp_path / "work-b" / "cache"
