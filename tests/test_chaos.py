"""Deterministic chaos suite: seeded faults against full pipeline runs.

Every scenario injects a reproducible fault (exception, worker kill, hang)
via :class:`repro.testing.chaos.FaultPlan` and asserts the fault-tolerance
contract end to end:

* a lenient run **completes**, and its export equals the fault-free export
  minus exactly the quarantined rows/shards;
* the report's ``faults`` section accounts for every retry, pool rebuild,
  quarantine and degradation;
* a ``raise``-policy crash **resumes**: re-running the same checkpointed
  config picks up mid-corpus and produces byte-identical output.

The marker rows are written to pass every filter of the fig-8 recipe
(30+ common words, no repetition, plain ASCII) so dropping them is visible
in the export.
"""

import itertools
import json
import math

import pytest

from repro.core.dataset import NestedDataset
from repro.core.errors import OpExecutionError
from repro.core.executor import Executor
from repro.core.exporter import Exporter
from repro.core.faults import DegradedExecutionWarning
from repro.ops.mappers.whitespace_normalization_mapper import WhitespaceNormalizationMapper
from repro.recipes import get_recipe
from repro.synth import c4_like
from repro.testing import FaultPlan

MARKER = "velociraptor"

#: distinct, filter-passing texts carrying the marker word (30+ words each,
#: no repeated n-grams, plain punctuation)
MARKER_TEXTS = [
    "The quiet velociraptor walked through the ancient library reading every "
    "dusty page while the patient librarian watched carefully from behind the "
    "long wooden desk and smiled at the curious visitor asking thoughtful "
    "questions about natural history and early reptile anatomy.",
    "A young velociraptor studied the evening sky over the wide river valley, "
    "counting bright stars and naming distant constellations while the warm "
    "wind carried the smell of rain across the tall grass toward the small "
    "camp where the researchers kept their field notes.",
    "Researchers observed the velociraptor sprinting across the open plain at "
    "remarkable speed, recording every stride with careful instruments and "
    "comparing the measurements against older field studies to understand how "
    "such animals balanced their long tails during sharp turns.",
]


def corpus_with_markers(num_samples: int = 90, seed: int = 11) -> list[dict]:
    """A c4-like corpus with the marker rows interleaved at fixed positions."""
    rows = c4_like(num_samples=num_samples, seed=seed).to_list()
    for position, text in zip((7, 33, 61), MARKER_TEXTS):
        rows.insert(position, {"text": text})
    return rows


def write_jsonl(path, rows):
    with path.open("w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, ensure_ascii=False) + "\n")
    return path


def export_lines(path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


def fig8_config(tmp_path, tag: str, **overrides) -> dict:
    config = get_recipe("pretrain-c4-refine-en")
    config["export_path"] = str(tmp_path / f"{tag}.jsonl")
    config["work_dir"] = str(tmp_path / f"work-{tag}")
    config.update(overrides)
    return config


SIMPLE_PROCESS = [
    {"whitespace_normalization_mapper": {}},
    {"words_num_filter": {"min_num": 1}},
]


class TestQuarantineEqualsFaultFreeMinusPoison:
    """The tentpole acceptance scenario, in both execution modes."""

    @pytest.fixture(scope="class")
    def rows(self):
        return corpus_with_markers()

    def fault_free_lines(self, tmp_path, rows):
        config = fig8_config(tmp_path, "clean")
        Executor(config).run(NestedDataset.from_list(rows))
        lines = export_lines(tmp_path / "clean.jsonl")
        assert sum(MARKER in line for line in lines) == len(MARKER_TEXTS)
        return lines

    def test_memory_mode(self, tmp_path, rows):
        clean_lines = self.fault_free_lines(tmp_path, rows)
        config = fig8_config(tmp_path, "faulted", on_error="quarantine")
        executor = Executor(config)
        FaultPlan().inject("fix_unicode_mapper", match=MARKER).install(executor.ops)
        executor.run(NestedDataset.from_list(rows))

        expected = [line for line in clean_lines if MARKER not in line]
        assert export_lines(tmp_path / "faulted.jsonl") == expected

        faults = executor.last_report["faults"]
        assert faults["quarantined_rows"] == len(MARKER_TEXTS)
        assert faults["op_errors"]["fix_unicode_mapper"] >= len(MARKER_TEXTS)
        assert faults["policy"]["on_error"] == "quarantine"
        quarantine_paths = faults["quarantine_paths"]
        assert len(quarantine_paths) == 1
        import gzip

        with gzip.open(quarantine_paths[0], "rt", encoding="utf-8") as handle:
            entries = [json.loads(line) for line in handle]
        assert len(entries) == len(MARKER_TEXTS)
        assert all(MARKER in entry["row"]["text"] for entry in entries)
        assert all(entry["op"] == "fix_unicode_mapper" for entry in entries)

    def test_streaming_mode(self, tmp_path, rows):
        clean_lines = self.fault_free_lines(tmp_path, rows)
        config = fig8_config(
            tmp_path, "faulted-stream", on_error="quarantine", max_shard_rows=25
        )
        executor = Executor(config)
        FaultPlan().inject("fix_unicode_mapper", match=MARKER).install(executor.ops)
        report = executor.run_streaming(NestedDataset.from_list(rows))

        expected = [line for line in clean_lines if MARKER not in line]
        assert export_lines(tmp_path / "faulted-stream.jsonl") == expected
        assert report["faults"]["quarantined_rows"] == len(MARKER_TEXTS)
        # faulted shards are excluded from the shard cache but still complete
        assert report["shards"]["executed_shards"] > 0


class TestTransientFaultRetries:
    def test_retry_heals_without_dropping_rows(self, tmp_path):
        rows = corpus_with_markers(num_samples=30)
        config = {
            "process": SIMPLE_PROCESS,
            "export_path": str(tmp_path / "out.jsonl"),
            "work_dir": str(tmp_path / "work"),
            "max_retries": 3,
            "backoff_s": 0.0,
        }
        executor = Executor(config)
        FaultPlan(state_dir=tmp_path / "fuse").inject(
            "whitespace_normalization_mapper", times=2
        ).install(executor.ops)
        executor.run(NestedDataset.from_list(rows))

        faults = executor.last_report["faults"]
        assert faults["retries"] == 2
        assert faults["quarantined_rows"] == 0
        assert faults["skipped_rows"] == 0

        reference = {
            "process": SIMPLE_PROCESS,
            "export_path": str(tmp_path / "ref.jsonl"),
            "work_dir": str(tmp_path / "work-ref"),
        }
        Executor(reference).run(NestedDataset.from_list(rows))
        assert (tmp_path / "out.jsonl").read_bytes() == (tmp_path / "ref.jsonl").read_bytes()

    @pytest.mark.parametrize("mode", ["memory", "streaming"])
    def test_raise_policy_retries_a_dedup_hashing_fault_in_both_modes(self, tmp_path, mode):
        """Regression: streaming's hand-written shard loop asked ``lenient``
        before ``max_retries``, so under ``on_error: raise`` a one-shot fault
        in a hashing stage aborted the streaming run memory mode healed."""
        rows = [
            {"text": f"{row['text'].strip()} document number {index}"}
            for index, row in enumerate(c4_like(num_samples=50, seed=23).to_list()[:40])
        ]
        config = {
            "process": [{"whitespace_normalization_mapper": {}}, {"document_deduplicator": {}}],
            "export_path": str(tmp_path / "out.jsonl"),
            "work_dir": str(tmp_path / "work"),
            "max_shard_rows": 10,
            "on_error": "raise",
            "max_retries": 2,
            "backoff_s": 0.0,
        }
        executor = Executor(config)
        FaultPlan(state_dir=tmp_path / "fuse").inject(
            "document_deduplicator", kind="raise", times=1
        ).install(executor.ops)
        dataset = NestedDataset.from_list(rows)
        if mode == "memory":
            executor.run(dataset)
        else:
            executor.run_streaming(dataset)
        faults = executor.last_report["faults"]
        assert faults["retries"] == 1 and faults["op_errors"] == {"document_deduplicator": 1}
        assert len(export_lines(tmp_path / "out.jsonl")) == 40


class TestWorkerSupervision:
    """Dead and hung workers are detected, the pool rebuilt, the chunk retried."""

    def reference_bytes(self, tmp_path, rows):
        config = {
            "process": SIMPLE_PROCESS,
            "export_path": str(tmp_path / "ref.jsonl"),
            "work_dir": str(tmp_path / "work-ref"),
        }
        Executor(config).run(NestedDataset.from_list(rows))
        return (tmp_path / "ref.jsonl").read_bytes()

    def supervised_config(self, tmp_path, **overrides):
        config = {
            "process": SIMPLE_PROCESS,
            "export_path": str(tmp_path / "out.jsonl"),
            "work_dir": str(tmp_path / "work"),
            "np": 2,
            "task_timeout_s": 2.0,
            "backoff_s": 0.01,
        }
        config.update(overrides)
        return config

    def test_killed_worker_triggers_rebuild_and_retry(self, tmp_path):
        rows = corpus_with_markers(num_samples=40)
        reference = self.reference_bytes(tmp_path, rows)
        executor = Executor(self.supervised_config(tmp_path))
        FaultPlan(state_dir=tmp_path / "fuse").inject(
            "whitespace_normalization_mapper", kind="kill", times=1
        ).install(executor.ops)
        with executor:
            executor.run(NestedDataset.from_list(rows))
        assert executor.last_report["faults"]["pool_rebuilds"] >= 1
        assert executor.last_report["faults"]["degradations"] == 0
        assert (tmp_path / "out.jsonl").read_bytes() == reference

    def test_hung_worker_triggers_rebuild_and_retry(self, tmp_path):
        rows = corpus_with_markers(num_samples=40)
        reference = self.reference_bytes(tmp_path, rows)
        executor = Executor(self.supervised_config(tmp_path))
        FaultPlan(state_dir=tmp_path / "fuse").inject(
            "whitespace_normalization_mapper", kind="hang", times=1, hang_s=30.0
        ).install(executor.ops)
        with executor:
            executor.run(NestedDataset.from_list(rows))
        assert executor.last_report["faults"]["pool_rebuilds"] >= 1
        assert (tmp_path / "out.jsonl").read_bytes() == reference

    def test_exhausted_rebuilds_degrade_to_serial(self, tmp_path):
        rows = corpus_with_markers(num_samples=40)
        reference = self.reference_bytes(tmp_path, rows)
        executor = Executor(
            self.supervised_config(tmp_path, max_pool_rebuilds=1)
        )
        # arm on a substring unique to ONE row so exactly one chunk (and
        # hence one kill) fires per dispatch attempt: kill, rebuild, kill
        # again on the retry, then degrade with both fuse tokens burnt
        FaultPlan(state_dir=tmp_path / "fuse").inject(
            "whitespace_normalization_mapper",
            kind="kill",
            match="counting bright stars",
            times=2,
        ).install(executor.ops)
        with executor, pytest.warns(DegradedExecutionWarning):
            executor.run(NestedDataset.from_list(rows))
        faults = executor.last_report["faults"]
        assert faults["pool_rebuilds"] == 1
        assert faults["degradations"] == 1
        # degraded serial execution still produces the exact same bytes
        assert (tmp_path / "out.jsonl").read_bytes() == reference


class TestWholeShardQuarantine:
    def test_persistently_failing_shard_is_dropped_whole(self, tmp_path):
        # exactly 30 unique rows (c4_like plants duplicate pairs for dedup
        # tests, so tag every text) with the marker in the middle shard
        # (rows 10..19)
        rows = [
            {"text": f"{row['text'].strip()} document number {index}"}
            for index, row in enumerate(c4_like(num_samples=40, seed=23).to_list()[:30])
        ]
        rows[12] = {"text": rows[12]["text"] + " " + MARKER}
        process = [
            {"whitespace_normalization_mapper": {}},
            {"document_deduplicator": {}},
        ]
        clean_config = {
            "process": process,
            "export_path": str(tmp_path / "clean.jsonl"),
            "work_dir": str(tmp_path / "work-clean"),
            "max_shard_rows": 10,
        }
        Executor(clean_config).run_streaming(NestedDataset.from_list(rows))
        clean_lines = export_lines(tmp_path / "clean.jsonl")
        assert len(clean_lines) == 30  # unique corpus: dedup keeps everything

        config = {
            "process": process,
            "export_path": str(tmp_path / "out.jsonl"),
            "work_dir": str(tmp_path / "work"),
            "max_shard_rows": 10,
            "on_error": "quarantine",
        }
        executor = Executor(config)
        # every op isolates its poison rows; a failure outside every op (here
        # the driver itself, on the marker's shard) fails the whole shard,
        # which the policy retries and then drops whole
        drive = executor._drive

        def failing_drive(ops, dataset, shard_id=None):
            if any(MARKER in text for text in dataset.column("text")):
                raise RuntimeError("shard-level failure outside every op")
            return drive(ops, dataset, shard_id)

        executor._drive = failing_drive
        report = executor.run_streaming(NestedDataset.from_list(rows))

        assert report["faults"]["quarantined_shards"] == 1
        assert export_lines(tmp_path / "out.jsonl") == clean_lines[:10] + clean_lines[20:]
        import gzip

        with gzip.open(report["faults"]["quarantine_paths"][0], "rt", encoding="utf-8") as handle:
            entries = [json.loads(line) for line in handle]
        assert len(entries) == 10
        assert all(entry["shard"] for entry in entries)

    def test_a_dropped_input_shard_quarantines_its_rows_as_decoded(self, tmp_path):
        """Regression: an input shard dropped whole was quarantined from its
        decoded dataset, so a row without ``url`` was written with
        ``"url": null`` because another row of its shard had one."""
        from repro.formats.jsonl_formatter import JsonlFormatter

        lines = [{"text": f"Document number {n}"} for n in range(6)]
        lines[3]["url"] = "https://example.com/3"
        lines[4]["text"] += " " + MARKER
        config = {
            "dataset_path": str(write_jsonl(tmp_path / "in.jsonl", lines)),
            "process": [{"whitespace_normalization_mapper": {}}],
            "work_dir": str(tmp_path / "work"),
            "max_shard_rows": 3,
            "on_error": "quarantine",
        }
        executor = Executor(config)
        drive = executor._drive

        def failing_drive(ops, dataset, shard_id=None):
            if any(MARKER in text for text in dataset.column("text")):
                raise RuntimeError("shard-level failure outside every op")
            return drive(ops, dataset, shard_id)

        executor._drive = failing_drive
        report = executor.run_streaming()
        assert report["faults"]["quarantined_shards"] == 1
        import gzip

        with gzip.open(report["faults"]["quarantine_paths"][0], "rt", encoding="utf-8") as handle:
            quarantined = [json.loads(line)["row"] for line in handle]
        decoded = list(JsonlFormatter(dataset_path=config["dataset_path"]).iter_records())
        # a row read from a file shows its (empty) stats dict last
        decoded = [{**row, "__stats__": {}} for row in decoded]
        assert quarantined == decoded[3:]
        assert [list(row) for row in quarantined] == [list(row) for row in decoded[3:]]


class TestOneFaultRule:
    """Memory mode and streaming apply one fault rule: an op's poison row is
    isolated (a Deduplicator's hashing included), and a failing global step
    degrades to keeping every row, however the corpus is cut."""

    PROCESS = [{"whitespace_normalization_mapper": {}}, {"document_deduplicator": {}}]

    @pytest.fixture(scope="class")
    def rows(self):
        # 31 unique rows and one duplicate; the marker row is in the middle
        rows = [
            {"text": f"{row['text'].strip()} document number {index}"}
            for index, row in enumerate(c4_like(num_samples=40, seed=23).to_list()[:31])
        ]
        rows.insert(20, dict(rows[3]))
        rows[12] = {"text": rows[12]["text"] + " " + MARKER}
        return rows

    RUNS = {
        "memory-np1": ("memory", {}),
        "memory-np2": ("memory", {"np": 2}),
        "stream-10": ("streaming", {"max_shard_rows": 10}),
        "stream-7": ("streaming", {"max_shard_rows": 7}),
    }

    def run(self, tmp_path, rows, tag, prepare, process=PROCESS, **options):
        mode, overrides = self.RUNS[tag]
        config = {
            "process": process,
            "export_path": str(tmp_path / f"{tag}.jsonl"),
            "work_dir": str(tmp_path / f"work-{tag}"),
            **overrides,
            **options,
        }
        with Executor(config) as executor:
            prepare(executor)
            if mode == "memory":
                executor.run(NestedDataset.from_list(rows))
            else:
                executor.run_streaming(NestedDataset.from_list(rows))
        return executor.last_report["faults"], (tmp_path / f"{tag}.jsonl").read_bytes()

    def test_a_poison_row_in_dedup_hashing_is_quarantined_alone(self, tmp_path, rows):
        import gzip

        def poison(executor):
            FaultPlan().inject("document_deduplicator", match=MARKER).install(executor.ops)

        runs = {}
        for tag in self.RUNS:
            faults, exported = self.run(tmp_path, rows, tag, poison, on_error="quarantine")
            with gzip.open(faults["quarantine_paths"][0], "rt", encoding="utf-8") as handle:
                entries = [json.loads(line) for line in handle]
            assert (faults["quarantined_rows"], faults["quarantined_shards"]) == (1, 0)
            assert faults["degradations"] == 0
            runs[tag] = exported, [(entry["op"], entry["error"], entry["row"]) for entry in entries]
        exported, entries = runs["memory-np1"]
        assert all(run == (exported, entries) for run in runs.values())
        # the duplicate and the poison row are gone, nothing else
        assert len(exported.splitlines()) == len(rows) - 2
        assert MARKER not in exported.decode("utf-8")
        assert entries[0][0] == "document_deduplicator" and MARKER in entries[0][2]["text"]

    def test_a_failing_global_step_keeps_every_row_under_skip(self, tmp_path, rows):
        """The lenient verdict of the global step: no row is wrongly dropped,
        and the hash columns go as a resolve would have taken them."""

        def broken_resolve(executor):
            def bomb(dataset, show_num=0):
                raise RuntimeError("the global resolve broke")

            executor.ops[-1].process = bomb

        sample_only = self.PROCESS[:1]
        _faults, reference = self.run(tmp_path / "ref", rows, "memory-np1", lambda _: None,
                                      process=sample_only)
        for tag in ("memory-np1", "stream-10"):
            faults, exported = self.run(tmp_path, rows, tag, broken_resolve, on_error="skip")
            assert exported == reference
            assert faults["degradations"] == 1
            assert faults["op_errors"] == {"document_deduplicator": 1}
        assert len(reference.splitlines()) == len(rows)


class TestCrashResumeComposesWithFaults:
    def test_streaming_crash_then_resume_is_byte_identical(self, tmp_path):
        rows = corpus_with_markers(num_samples=40, seed=31)
        input_path = write_jsonl(tmp_path / "in.jsonl", rows)
        config = {
            "dataset_path": str(input_path),
            "process": SIMPLE_PROCESS,
            "export_path": str(tmp_path / "out.jsonl"),
            "work_dir": str(tmp_path / "work"),
            "max_shard_rows": 10,
            "use_checkpoint": True,
        }
        # arm on a substring unique to the marker row at input index 33
        # (shard 3): shards 0-2 spill before the crash, so the resume has
        # something to skip
        crashing = Executor(config)
        FaultPlan(state_dir=tmp_path / "fuse").inject(
            "whitespace_normalization_mapper", match="counting bright stars", times=1
        ).install(crashing.ops)
        with pytest.raises(OpExecutionError) as excinfo:
            crashing.run_streaming()
        message = str(excinfo.value)
        assert "whitespace_normalization_mapper" in message
        assert "shard" in message  # satellite: failures name their shard

        resumed = Executor(config)
        report = resumed.run_streaming()
        assert report["shards"]["resumed_shards"] > 0
        assert report["faults"]["quarantined_rows"] == 0

        reference = {
            "dataset_path": str(input_path),
            "process": SIMPLE_PROCESS,
            "export_path": str(tmp_path / "ref.jsonl"),
            "work_dir": str(tmp_path / "work-ref"),
        }
        Executor(reference).run()
        assert (tmp_path / "out.jsonl").read_bytes() == (tmp_path / "ref.jsonl").read_bytes()

    def test_memory_mode_failure_names_op_and_row(self, tmp_path):
        rows = corpus_with_markers(num_samples=20, seed=37)
        config = {
            "process": SIMPLE_PROCESS,
            "work_dir": str(tmp_path / "work"),
        }
        executor = Executor(config)
        FaultPlan().inject(
            "whitespace_normalization_mapper", match=MARKER
        ).install(executor.ops)
        with pytest.raises(OpExecutionError) as excinfo:
            executor.run(NestedDataset.from_list(rows))
        message = str(excinfo.value)
        assert "whitespace_normalization_mapper" in message
        assert "row index: 7" in message  # first marker row
        assert "--on-error raise" in message


class TestCrashResumeKeepsTheQuarantine:
    """A resume after a crash quarantines what the uninterrupted run does.

    It does not yet (ROADMAP item 3): a resume replays the ``#faulted``
    entries of the killed run and re-runs no op over them, so their rows
    never reach the resumed run's quarantine file or report, and streaming
    reopens ``quarantine-00001.jsonl.gz`` over the killed run's file.
    """

    PROCESS = [
        {"whitespace_normalization_mapper": {}},
        {"words_num_filter": {"min_num": 1}},
        {"document_deduplicator": {}},
    ]

    def run(self, tmp_path, tag, mode, kill_at=None, **options):
        """The poisoned run's faults and export; killed first at the
        ``kill_at``-th ``_drive`` call, then resumed, when given."""
        rows = corpus_with_markers(num_samples=50, seed=41)
        config = {
            "dataset_path": str(write_jsonl(tmp_path / "in.jsonl", rows)),
            "process": self.PROCESS,
            "export_path": str(tmp_path / f"{tag}.jsonl"),
            "work_dir": str(tmp_path / f"work-{tag}"),
            "use_checkpoint": True,
            "on_error": "quarantine",
            **options,
        }
        for killed in ([True, False] if kill_at else [False]):
            executor = Executor(config)
            FaultPlan().inject("whitespace_normalization_mapper", match=MARKER).install(
                executor.ops
            )
            if killed:
                drive, calls = executor._drive, itertools.count(1)

                def killing_drive(*args, **kwargs):
                    if next(calls) == kill_at:
                        raise KeyboardInterrupt
                    return drive(*args, **kwargs)

                executor._drive = killing_drive
                with pytest.raises(KeyboardInterrupt):
                    executor.execute(mode=mode)
            else:
                report = executor.execute(mode=mode)
        import gzip

        quarantined = []
        for path in sorted((tmp_path / f"work-{tag}" / "quarantine").glob("*.jsonl.gz")):
            with gzip.open(path, "rt", encoding="utf-8") as handle:
                quarantined += [json.loads(line)["row"]["text"] for line in handle]
        exported = (tmp_path / f"{tag}.jsonl").read_bytes()
        return report["faults"]["quarantined_rows"], sorted(quarantined), exported

    @pytest.mark.xfail(strict=True, reason="a checkpoint resume loses quarantined rows")
    def test_streaming(self, tmp_path):
        # shards of 10 rows: the markers sit in shards 0, 3 and 5; the kill
        # comes at shard 4, after two of them were quarantined
        reference = self.run(tmp_path, "reference", "streaming", max_shard_rows=10)
        assert reference[0] == len(MARKER_TEXTS)
        assert self.run(tmp_path, "resumed", "streaming", 5, max_shard_rows=10) == reference

    @pytest.mark.xfail(strict=True, reason="a checkpoint resume loses quarantined rows")
    def test_memory_mode(self, tmp_path):
        # the kill comes at the dedup's hashing, after the mapper quarantined all three
        reference = self.run(tmp_path, "reference", "memory")
        assert reference[0] == len(MARKER_TEXTS)
        assert self.run(tmp_path, "resumed", "memory", 3) == reference


class TestCrashResumeWorstPoints:
    """Satellite: crashes at the two nastiest streaming points still resume."""

    PROCESS = [
        {"whitespace_normalization_mapper": {}},
        {"document_deduplicator": {}},
    ]

    def configs(self, tmp_path):
        input_path = write_jsonl(
            tmp_path / "in.jsonl", c4_like(num_samples=50, seed=41).to_list()
        )
        streaming = {
            "dataset_path": str(input_path),
            "process": self.PROCESS,
            "export_path": str(tmp_path / "out.jsonl"),
            "work_dir": str(tmp_path / "work"),
            "max_shard_rows": 10,
            "use_checkpoint": True,
        }
        reference = {
            "dataset_path": str(input_path),
            "process": self.PROCESS,
            "export_path": str(tmp_path / "ref.jsonl"),
            "work_dir": str(tmp_path / "work-ref"),
        }
        return streaming, reference

    def test_crash_between_hash_pass_and_global_resolve(self, tmp_path):
        import repro.core.executor as executor_module

        streaming, reference = self.configs(tmp_path)

        def resolve_bomb(op, signature, show_num=0):
            raise RuntimeError("crashed before the global resolve")

        original = executor_module.resolve_global_keep
        executor_module.resolve_global_keep = resolve_bomb
        try:
            with pytest.raises(OpExecutionError, match="global resolve|crashed"):
                Executor(streaming).run_streaming()
        finally:
            executor_module.resolve_global_keep = original

        report = Executor(streaming).run_streaming()
        assert report["shards"]["resumed_shards"] > 0

        Executor(reference).run()
        assert (tmp_path / "out.jsonl").read_bytes() == (tmp_path / "ref.jsonl").read_bytes()

    def test_crash_mid_export(self, tmp_path):
        import repro.core.executor as executor_module

        streaming, reference = self.configs(tmp_path)

        class MidExportCrash(Exporter):
            def export_stream(self, rows):
                def limited(source):
                    for index, row in enumerate(source):
                        if index >= 25:
                            raise RuntimeError("crashed mid-export")
                        yield row

                return super().export_stream(limited(rows))

        original = executor_module.Exporter
        executor_module.Exporter = MidExportCrash
        try:
            with pytest.raises(RuntimeError, match="crashed mid-export"):
                Executor(streaming).run_streaming()
        finally:
            executor_module.Exporter = original

        report = Executor(streaming).run_streaming()
        assert report["shards"]["resumed_shards"] > 0

        Executor(reference).run()
        assert (tmp_path / "out.jsonl").read_bytes() == (tmp_path / "ref.jsonl").read_bytes()


class TestSegmentFaultParity:
    """np=2 runs a whole run of ops as one pool task per chunk; a fault in the
    middle of that segment must look exactly like the serial run's fault."""

    #: one pool segment of three ops; the first filter drops rows, so row
    #: indices entering the last op differ from input positions
    PROCESS = [
        {"whitespace_normalization_mapper": {}},
        {"text_length_filter": {"max_len": 1700}},
        {"words_num_filter": {"min_num": 1}},
    ]

    def config(self, tmp_path, tag, **overrides):
        config = {
            "process": self.PROCESS,
            "export_path": str(tmp_path / f"{tag}.jsonl"),
            "work_dir": str(tmp_path / f"work-{tag}"),
            "backoff_s": 0.0,
        }
        config.update(overrides)
        return config

    def run(self, tmp_path, tag, rows, plan=None, **overrides):
        with Executor(self.config(tmp_path, tag, **overrides)) as executor:
            if plan is not None:
                plan.install(executor.ops)
            executor.run(NestedDataset.from_list(rows))
        return executor.last_report, (tmp_path / f"{tag}.jsonl").read_bytes()

    def test_raise_names_the_failing_op_and_first_failing_row(self, tmp_path):
        rows = corpus_with_markers(num_samples=60)
        errors = {}
        for np in (1, 2):
            executor = Executor(self.config(tmp_path, f"np{np}", np=np))
            FaultPlan().inject("words_num_filter", match=MARKER).install(executor.ops)
            with executor, pytest.raises(OpExecutionError) as excinfo:
                executor.run(NestedDataset.from_list(rows))
            errors[np] = excinfo.value
            assert executor.last_report is not None
        assert errors[2].op_name == errors[1].op_name == "words_num_filter"
        assert errors[2].row_index == errors[1].row_index
        # rows were dropped before the failing op: not the input position
        assert errors[2].row_index not in (None, 7)
        assert str(errors[2]) == str(errors[1])

    @pytest.mark.parametrize("mode", ["memory", "streaming"])
    def test_quarantine_equals_fault_free_minus_quarantined_rows(self, tmp_path, mode):
        rows = corpus_with_markers()
        clean = fig8_config(tmp_path, "clean")
        Executor(clean).run(NestedDataset.from_list(rows))
        clean_lines = export_lines(tmp_path / "clean.jsonl")

        config = fig8_config(
            tmp_path, "faulted", on_error="quarantine", np=2, max_shard_rows=25
        )
        with Executor(config) as executor:
            # clean_links_mapper is the fifth op of the recipe's first segment
            FaultPlan().inject("clean_links_mapper", match=MARKER).install(executor.ops)
            if mode == "memory":
                executor.run(NestedDataset.from_list(rows))
            else:
                executor.run_streaming(NestedDataset.from_list(rows))
        assert export_lines(tmp_path / "faulted.jsonl") == [
            line for line in clean_lines if MARKER not in line
        ]
        faults = executor.last_report["faults"]
        assert faults["quarantined_rows"] == len(MARKER_TEXTS)
        import gzip

        entries = []
        for path in faults["quarantine_paths"]:
            with gzip.open(path, "rt", encoding="utf-8") as handle:
                entries.extend(json.loads(line) for line in handle)
        assert len(entries) == len(MARKER_TEXTS)
        assert all(entry["op"] == "clean_links_mapper" for entry in entries)
        assert all(MARKER in entry["row"]["text"] for entry in entries)

    def test_quarantine_payloads_match_the_serial_run(self, tmp_path):
        rows = corpus_with_markers(num_samples=60)
        payloads = {}
        for np in (1, 2):
            plan = FaultPlan().inject("words_num_filter", match=MARKER)
            report, exported = self.run(
                tmp_path, f"np{np}", rows, plan, np=np, on_error="quarantine"
            )
            import gzip

            with gzip.open(report["faults"]["quarantine_paths"][0], "rb") as handle:
                payloads[np] = (handle.read(), exported, report.op_summary())
        assert payloads[2] == payloads[1]

    def test_quarantine_under_a_tracer_changes_nothing_but_the_trace(self, tmp_path):
        """A traced segment is not cut: the faulting op is isolated inside it
        and traced from its rows' own verdicts, the same at np 1 and 2."""
        rows = corpus_with_markers(num_samples=60)
        runs = {}
        for np, traced in itertools.product((1, 2), (False, True)):
            plan = FaultPlan().inject("words_num_filter", match=MARKER)
            report, exported = self.run(
                tmp_path, f"np{np}-t{int(traced)}", rows, plan, np=np,
                on_error="quarantine", open_tracer=traced, trace_num=50,
            )
            trace_dir = tmp_path / f"work-np{np}-t{int(traced)}" / "trace"
            files = {path.name: path.read_bytes() for path in sorted(trace_dir.glob("*"))}
            runs[np, traced] = (exported, report.op_summary(), report["faults"], files)
        reference, summary, faults, files = runs[2, True]
        assert faults["quarantined_rows"] == len(MARKER_TEXTS)
        assert {run: value[:2] == (reference, summary) for run, value in runs.items()} == {
            run: True for run in runs
        }
        assert files == runs[1, True][3] and len(files) == len(self.PROCESS)
        (isolated,) = [data for name, data in files.items() if "words_num_filter" in name]
        header = json.loads(isolated.splitlines()[0])
        # the isolated op ran on every row but the quarantined ones
        entering = {name: rows_out for name, _type, _in, rows_out in summary}
        assert header["input_size"] == entering["text_length_filter"] - len(MARKER_TEXTS)

    def test_transient_fault_costs_one_error_and_one_retry(self, tmp_path):
        rows = corpus_with_markers(num_samples=60)
        _report, reference = self.run(tmp_path, "ref", rows)
        plan = FaultPlan(state_dir=tmp_path / "fuse").inject(
            "text_length_filter", match=MARKER_TEXTS[1][:40], times=1
        )
        report, exported = self.run(tmp_path, "out", rows, plan, np=2, max_retries=1)
        faults = report["faults"]
        assert faults["op_errors"] == {"text_length_filter": 1}
        assert faults["retries"] == 1
        assert faults["quarantined_rows"] == faults["skipped_rows"] == 0
        assert exported == reference
        assert plan.fired() == 1

    @pytest.mark.parametrize("kind", ["kill", "hang"])
    def test_kill_and_hang_inside_a_segment_rebuild_the_pool(self, tmp_path, kind):
        rows = corpus_with_markers(num_samples=60)
        _report, reference = self.run(tmp_path, "ref", rows)
        # the fault fires in the segment's last op: the replayed task redoes
        # the two ops before it as well
        plan = FaultPlan(state_dir=tmp_path / "fuse").inject(
            "words_num_filter", kind=kind, times=1, hang_s=30.0
        )
        report, exported = self.run(
            tmp_path, "out", rows, plan, np=2, task_timeout_s=2.0, backoff_s=0.01
        )
        assert report["faults"]["pool_rebuilds"] >= 1
        assert report["faults"]["degradations"] == 0
        assert report["faults"]["op_errors"] == {}
        assert exported == reference
        # one segment, at most 8 chunks: the rebuild replays, it does not add tasks
        assert report["parallel"]["tasks"] <= 8


class DivergentWhitespaceMapper(WhitespaceNormalizationMapper):
    """A whitespace mapper whose per-row ``process`` marks the text its
    batched kernel leaves alone: any row a run sends down the per-row path
    shows in the export."""

    def process(self, sample: dict) -> dict:
        sample = super().process(sample)
        return self.set_text(sample, self.get_text(sample) + " (per-row path)")


class TestOneKernelUnderFaults:
    """A faulted run applies the kernels a clean run applies: its export is
    the clean export minus the poison row, even for an op whose per-row
    method disagrees with its batched one."""

    POISON = MARKER_TEXTS[1][:40]

    def run(self, tmp_path, tag, rows, mode, np, poisoned):
        config = {
            "process": SIMPLE_PROCESS,
            "export_path": str(tmp_path / f"{tag}.jsonl"),
            "work_dir": str(tmp_path / f"work-{tag}"),
            "np": np,
            "max_shard_rows": 25,
            "on_error": "quarantine",
        }
        with Executor(config) as executor:
            executor.ops[0] = DivergentWhitespaceMapper()
            if poisoned:
                FaultPlan().inject(
                    "whitespace_normalization_mapper", match=self.POISON
                ).install(executor.ops)
            if mode == "memory":
                executor.run(NestedDataset.from_list(rows))
            else:
                executor.run_streaming(NestedDataset.from_list(rows))
        return executor.last_report["faults"], export_lines(tmp_path / f"{tag}.jsonl")

    @pytest.mark.parametrize("mode, np", itertools.product(["memory", "streaming"], [1, 2]))
    def test_quarantine_exports_the_clean_lines_minus_the_poison_row(self, tmp_path, mode, np):
        rows = corpus_with_markers(num_samples=60)
        _faults, clean = self.run(tmp_path, "clean", rows, mode, np, poisoned=False)
        faults, faulted = self.run(tmp_path, "faulted", rows, mode, np, poisoned=True)
        assert not any("(per-row path)" in line for line in clean)
        assert faulted == [line for line in clean if self.POISON not in line]
        assert faults["quarantined_rows"] == 1


def count_per_row_calls(op, calls: list) -> None:
    """Log in ``calls`` every row handed to ``op``'s per-row methods."""
    for name in ("process", "compute_stats"):
        method = getattr(op, name, None)
        if method is None:
            continue

        def counting(row, *args, _method=method):
            calls.append(row)
            return _method(row, *args)

        setattr(op, name, counting)


class TestAFaultCostsItsChunk:
    """A poison row costs the chunk it is in, not the dataset, and within it
    a halving search: with no retries, k poison rows in one n-row chunk cost
    at most 2k⌈log₂ n⌉ + 1 segment runs after the chunk's first failure. The
    fault layer adds no pool task and never takes a per-row path."""

    @pytest.mark.parametrize("positions", [(1234,), (1234, 1236, 1238)])
    @pytest.mark.parametrize("np", [1, 2])
    def test_a_halving_search_isolates_the_poison_rows(
        self, tmp_path, monkeypatch, np, positions
    ):
        from repro.core import segment
        from repro.core.batch import batch_length
        from repro.parallel import WorkerPool

        rows = c4_like(num_samples=2400, seed=5).to_list()
        for position, text in zip(positions, MARKER_TEXTS):
            rows.insert(position, {"text": text})
        runs = []  # rows of each segment run in this process
        per_row = []  # rows handed to per-row op methods
        poison_chunks = []  # (rows, poison rows) of each multi-row batch holding poison

        def watch(batches):
            for batch in batches:
                markers = sum(MARKER in text for text in batch["text"])
                if markers and batch_length(batch) > 1:
                    poison_chunks.append((batch_length(batch), markers))

        run_segment, pool_run_segment = segment.run_segment, WorkerPool.run_segment

        def spy_segment(ops, batch, trace_num=0):
            runs.append(batch_length(batch))
            watch([batch])
            return run_segment(ops, batch, trace_num)

        def spy_pool(pool, ops, batches, trace_num=0):
            watch(batches)
            return pool_run_segment(pool, ops, batches, trace_num)

        monkeypatch.setattr(segment, "run_segment", spy_segment)
        monkeypatch.setattr(WorkerPool, "run_segment", spy_pool)

        def run(tag, poisoned):
            config = {
                "process": SIMPLE_PROCESS,
                "export_path": str(tmp_path / f"{tag}.jsonl"),
                "work_dir": str(tmp_path / f"work-{tag}"),
                "np": np,
                "on_error": "quarantine",
            }
            runs.clear()
            poison_chunks.clear()
            with Executor(config) as executor:
                if poisoned:
                    FaultPlan().inject("words_num_filter", match=MARKER).install(executor.ops)
                for op in executor.ops:
                    count_per_row_calls(op, per_row)
                executor.run(NestedDataset.from_list(rows))
            return executor.last_report, list(runs)

        clean, clean_runs = run("clean", poisoned=False)
        faulted, faulted_runs = run("faulted", poisoned=True)
        assert faulted["faults"]["quarantined_rows"] == len(positions)
        assert per_row == []
        # every poison row sits in the first chunk that held one
        size, markers = poison_chunks[0]
        assert markers == len(positions) and size < len(rows)
        searched = len(faulted_runs) - len(clean_runs)
        assert 0 < searched <= 2 * len(positions) * math.ceil(math.log2(size)) + 1
        if len(positions) == 1:  # one poison row: its last split gives two one-row pieces
            assert faulted_runs.count(1) <= 2
        assert faulted["parallel"]["tasks"] == clean["parallel"]["tasks"]
