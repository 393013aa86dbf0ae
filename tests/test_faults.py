"""Unit tests for the fault-tolerance layer (repro.core.faults and friends).

The deterministic chaos scenarios over full pipelines live in
``tests/test_chaos.py``; this module covers the building blocks: the policy
dataclass, the tracker, the quarantine writer, the policy-aware segment runner,
the worker-pool close path and the config/API/report surfaces.
"""

import gzip
import json
import logging

import pytest

from repro.core.config import RecipeConfig, load_config, validate_config
from repro.core.dataset import NestedDataset
from repro.core.errors import ConfigError, OpExecutionError
from repro.core.executor import Executor
from repro.core.faults import (
    BACKOFF_CAP_S,
    ErrorPolicy,
    FaultTracker,
    QuarantineWriter,
    describe_failure,
    retry_call,
    run_segment_with_policy,
)
from repro.core.monitor import RunProfiler
from repro.core.report import RunReport
from repro.ops import load_ops
from repro.parallel import WorkerPool
from repro.testing import ChaosFault, FaultPlan


def poison_dataset():
    return NestedDataset.from_list(
        [
            {"text": "a perfectly ordinary document"},
            {"text": "the POISON row that crashes the op"},
            {"text": "another fine document"},
        ]
    )


def poisoned_mapper(tmp_path=None):
    """A whitespace mapper that raises on rows containing POISON."""
    op = load_ops([{"whitespace_normalization_mapper": {}}])[0]
    FaultPlan().inject("whitespace_normalization_mapper", match="POISON").install([op])
    return op


class TestErrorPolicy:
    def test_defaults_are_the_historical_behaviour(self):
        policy = ErrorPolicy()
        assert policy.on_error == "raise"
        assert not policy.lenient
        assert policy.max_retries == 0
        assert policy.task_timeout_s is None

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError):
            ErrorPolicy(on_error="explode")

    def test_backoff_is_capped_exponential(self):
        policy = ErrorPolicy(backoff_s=0.5)
        assert policy.backoff(0) == 0.5
        assert policy.backoff(1) == 1.0
        assert policy.backoff(10) == BACKOFF_CAP_S

    def test_zero_backoff_never_sleeps(self):
        assert ErrorPolicy(backoff_s=0).backoff(5) == 0.0

    def test_from_config_round_trip(self):
        config = RecipeConfig(
            on_error="quarantine", max_retries=3, backoff_s=0.1, task_timeout_s=5.0
        )
        policy = ErrorPolicy.from_config(config)
        assert policy.lenient
        assert policy.as_dict() == {
            "on_error": "quarantine",
            "max_retries": 3,
            "backoff_s": 0.1,
            "task_timeout_s": 5.0,
            "max_pool_rebuilds": 2,
        }


class TestFaultTracker:
    def test_counters_and_total(self):
        tracker = FaultTracker()
        assert tracker.total_faults == 0
        tracker.record_retry("some_op")
        tracker.record_rebuild("pool broke")
        tracker.record_op_error("some_op", ValueError("x"))
        tracker.record_dropped_rows("some_op", 2, quarantined=True)
        tracker.record_dropped_rows("some_op", 1, quarantined=False)
        tracker.record_dropped_shard("stage0:shard00001", 10)
        tracker.record_degradation("went serial")
        payload = tracker.as_dict()
        assert payload["retries"] == 1
        assert payload["pool_rebuilds"] == 1
        assert payload["quarantined_rows"] == 2
        assert payload["skipped_rows"] == 1
        assert payload["quarantined_shards"] == 1
        assert payload["degradations"] == 1
        assert payload["op_errors"] == {"some_op": 1}
        assert tracker.total_faults == 8

    def test_event_log_is_bounded(self):
        from repro.core.faults import MAX_FAULT_EVENTS

        tracker = FaultTracker()
        for _ in range(MAX_FAULT_EVENTS * 2):
            tracker.record_retry("op")
        assert len(tracker.events) == MAX_FAULT_EVENTS
        assert tracker.retries == MAX_FAULT_EVENTS * 2


class TestQuarantineWriter:
    def test_entries_carry_full_failure_context(self, tmp_path):
        writer = QuarantineWriter(tmp_path / "q")
        writer.write(
            {"text": "bad row"},
            "some_op",
            ValueError("boom"),
            shard_id="stage0:shard00002",
            row_index=7,
        )
        writer.close()
        assert [path.name for path in writer.paths] == ["quarantine-00001.jsonl.gz"]
        with gzip.open(writer.paths[0], "rt", encoding="utf-8") as handle:
            entry = json.loads(handle.readline())
        assert entry == {
            "op": "some_op",
            "error": "ValueError('boom')",
            "shard": "stage0:shard00002",
            "row_index": 7,
            "row": {"text": "bad row"},
        }

    def test_files_roll_at_the_row_budget(self, tmp_path):
        writer = QuarantineWriter(tmp_path / "q", rows_per_file=2)
        for index in range(5):
            writer.write({"text": str(index)}, "op", "err", row_index=index)
        writer.close()
        assert len(writer.paths) == 3
        assert writer.count == 5


def run_policy(op, dataset, policy, tracker=None, quarantine=None):
    """A segment of one op, in-process, under ``policy``: the output dataset."""
    tracker = tracker if tracker is not None else FaultTracker()
    out, _positions, _trace = run_segment_with_policy(
        [op], dataset, None, policy, tracker, quarantine, RunProfiler()
    )
    return out


class TestRunSegmentWithPolicy:
    def test_skip_drops_only_the_poison_row(self):
        op = poisoned_mapper()
        tracker = FaultTracker()
        out = run_policy(op, poison_dataset(), ErrorPolicy(on_error="skip"), tracker)
        assert [row["text"] for row in out] == [
            "a perfectly ordinary document",
            "another fine document",
        ]
        assert tracker.skipped_rows == 1
        assert tracker.quarantined_rows == 0
        assert op.name in tracker.op_errors

    def test_quarantine_writes_the_poison_row(self, tmp_path):
        op = poisoned_mapper()
        tracker = FaultTracker()
        quarantine = QuarantineWriter(tmp_path / "q")
        out = run_policy(
            op, poison_dataset(), ErrorPolicy(on_error="quarantine"), tracker, quarantine
        )
        quarantine.close()
        assert len(out) == 2
        assert tracker.quarantined_rows == 1
        with gzip.open(quarantine.paths[0], "rt", encoding="utf-8") as handle:
            entry = json.loads(handle.readline())
        assert "POISON" in entry["row"]["text"]
        assert entry["op"] == "whitespace_normalization_mapper"

    def test_raise_aborts_with_op_and_row_context(self):
        op = poisoned_mapper()
        with pytest.raises(OpExecutionError) as excinfo:
            run_policy(op, poison_dataset(), ErrorPolicy())
        message = str(excinfo.value)
        assert "whitespace_normalization_mapper" in message
        assert "row index: 1" in message
        assert "--on-error raise" in message
        assert excinfo.value.row_index == 1

    def test_transient_failure_succeeds_within_retries(self, tmp_path):
        op = load_ops([{"whitespace_normalization_mapper": {}}])[0]
        FaultPlan(state_dir=tmp_path).inject(
            "whitespace_normalization_mapper", times=2
        ).install([op])
        tracker = FaultTracker()
        out = run_policy(op, poison_dataset(), ErrorPolicy(max_retries=3, backoff_s=0), tracker)
        assert len(out) == 3  # nothing dropped: the op healed on retry
        assert tracker.retries == 2

    def test_a_one_row_chunk_is_retried_once_per_its_budget(self):
        tracker = FaultTracker()
        poison = NestedDataset.from_list([{"text": "the POISON row alone"}])
        policy = ErrorPolicy(on_error="skip", max_retries=1, backoff_s=0.0)
        out = run_policy(poisoned_mapper(), poison, policy, tracker)
        assert len(out) == 0 and tracker.skipped_rows == 1
        # one run and one retry: the chunk is its own one-row piece, not searched again
        assert tracker.op_errors == {"whitespace_normalization_mapper": 2}
        assert tracker.retries == 1

    def test_fingerprint_salted_by_dropped_rows(self):
        clean = load_ops([{"whitespace_normalization_mapper": {}}])[0]
        clean_out = clean.run(poison_dataset().select([0, 2]))
        faulty_out = run_policy(poisoned_mapper(), poison_dataset(), ErrorPolicy(on_error="skip"))
        assert clean_out.to_list() == faulty_out.to_list()
        assert clean_out.fingerprint != faulty_out.fingerprint


class TestRaiseNamesTheRowAtAnyChunkSize:
    """``raise`` names the first failing row however large its chunk: the
    halving search that isolates rows for ``skip`` / ``quarantine`` finds it."""

    PROCESS = [{"whitespace_normalization_mapper": {}}, {"words_num_filter": {"min_num": 1}}]

    def failure(self, tmp_path, rows, poison, plan, **config):
        data = [{"text": f"row {index} holds a few plain words"} for index in range(rows)]
        data[poison] = {"text": "the POISON row that crashes the filter"}
        with Executor({"process": self.PROCESS, "work_dir": str(tmp_path), **config}) as executor:
            plan.install(executor.ops)
            with pytest.raises(OpExecutionError) as excinfo:
                executor.run(NestedDataset.from_list(data))
        assert excinfo.value.op_name == "words_num_filter"
        return excinfo.value

    @pytest.mark.parametrize(
        "rows, config", [(3000, {"batch_size": 3000}), (21000, {"np": 2})], ids=["np1", "np2"]
    )
    def test_the_poison_row_is_named(self, tmp_path, rows, config):
        plan = FaultPlan().inject("words_num_filter", match="POISON")
        error = self.failure(tmp_path, rows, 2500, plan, **config)
        assert error.row_index == 2500
        assert "(first failing row index: 2500)" in str(error)

    def test_a_one_shot_fault_aborts_without_a_row(self, tmp_path):
        plan = FaultPlan(state_dir=tmp_path / "fuse").inject(
            "words_num_filter", match="POISON", times=1
        )
        error = self.failure(tmp_path, 40, 20, plan)
        assert plan.fired() == 1
        assert error.row_index is None
        assert "row index" not in str(error)


class TestRetryCall:
    def test_retries_then_returns(self):
        calls = {"count": 0}

        def flaky():
            calls["count"] += 1
            if calls["count"] < 3:
                raise ValueError("transient")
            return "ok"

        tracker = FaultTracker()
        result = retry_call(
            flaky, ErrorPolicy(max_retries=5, backoff_s=0), tracker, "flaky_stage"
        )
        assert result == "ok"
        assert tracker.retries == 2

    def test_final_error_reraised_unwrapped(self):
        def always():
            raise ValueError("persistent")

        with pytest.raises(ValueError, match="persistent"):
            retry_call(
                always, ErrorPolicy(max_retries=1, backoff_s=0), FaultTracker(), "x"
            )


class TestDescribeFailure:
    def test_message_names_op_shard_and_row(self):
        message = describe_failure(
            "words_num_filter", ValueError("nan"), "stage1:shard00004", 12
        )
        assert "words_num_filter" in message
        assert "stage1:shard00004" in message
        assert "row index: 12" in message
        assert "--on-error raise" in message


class TestWorkerPoolClose:
    def test_drain_failure_is_logged_and_remembered(self, caplog):
        pool = WorkerPool(2, process_list=[{"whitespace_normalization_mapper": {}}])

        def broken_close():
            raise RuntimeError("drain broke")

        pool._pool.close = broken_close
        with caplog.at_level(logging.WARNING, logger="repro.parallel.pool"):
            pool.close()
        assert isinstance(pool.close_error, RuntimeError)
        assert "drain broke" in str(pool.close_error)
        assert any("drain failed" in record.message for record in caplog.records)
        assert not pool.alive

    def test_clean_close_leaves_no_error(self):
        pool = WorkerPool(2, process_list=[{"whitespace_normalization_mapper": {}}])
        pool.close()
        assert pool.close_error is None


class TestCorruptCheckpointState:
    def test_run_reexecutes_instead_of_crashing(self, tmp_path):
        config = {
            "process": [{"whitespace_normalization_mapper": {}}],
            "work_dir": str(tmp_path),
            "use_checkpoint": True,
        }
        dataset = poison_dataset()
        Executor(config).run(dataset)
        state_path = tmp_path / "checkpoint" / "checkpoint_state.json"
        assert state_path.exists()
        state_path.write_text("{ truncated garbage", encoding="utf-8")
        out = Executor(config).run(dataset)
        assert len(out) == 3

    def test_read_state_returns_none_on_garbage(self, tmp_path):
        from repro.core.checkpoint import CheckpointManager

        manager = CheckpointManager(tmp_path)
        (tmp_path / CheckpointManager.STATE_FILE).write_text("not json", encoding="utf-8")
        assert manager.read_state() is None


class TestConfigValidation:
    def test_bad_on_error_rejected(self):
        with pytest.raises(ConfigError, match="on_error"):
            validate_config(RecipeConfig(on_error="explode"))

    def test_negative_retries_rejected(self):
        with pytest.raises(ConfigError, match="max_retries"):
            validate_config(RecipeConfig(max_retries=-1))

    def test_zero_timeout_rejected(self):
        with pytest.raises(ConfigError, match="task_timeout_s"):
            validate_config(RecipeConfig(task_timeout_s=0))

    def test_fault_keys_round_trip_through_load_config(self):
        config = load_config(
            {
                "process": [],
                "on_error": "quarantine",
                "max_retries": 2,
                "task_timeout_s": 1.5,
            }
        )
        assert config.on_error == "quarantine"
        assert config.as_dict()["task_timeout_s"] == 1.5


class TestPipelineOnError:
    def test_on_error_sets_recipe_keys(self):
        from repro.api import Pipeline

        recipe = (
            Pipeline.new()
            .on_error("quarantine", max_retries=2, task_timeout_s=30, backoff_s=0.2)
            .to_recipe()
        )
        assert recipe["on_error"] == "quarantine"
        assert recipe["max_retries"] == 2
        assert recipe["task_timeout_s"] == 30
        assert recipe["backoff_s"] == 0.2

    def test_bad_policy_caught_at_compile(self):
        from repro.api import Pipeline

        with pytest.raises(ConfigError, match="on_error"):
            Pipeline.new().on_error("explode").to_config()


class TestReportFaultsSection:
    def test_render_shows_faults_only_when_something_happened(self):
        quiet = RunReport(faults={"retries": 0, "op_errors": {}, "policy": {}})
        assert "faults" not in quiet.render()
        noisy = RunReport(
            faults={
                "retries": 3,
                "pool_rebuilds": 1,
                "degradations": 0,
                "quarantined_rows": 2,
                "skipped_rows": 0,
                "quarantined_shards": 0,
                "op_errors": {"words_num_filter": 3},
                "policy": {"on_error": "quarantine"},
                "quarantine_paths": ["/tmp/q/quarantine-00001.jsonl.gz"],
            }
        )
        rendered = noisy.render()
        assert "faults (on_error=quarantine)" in rendered
        assert "retries=3" in rendered
        assert "words_num_filter=3" in rendered
        assert "quarantine-00001.jsonl.gz" in rendered

    def test_faults_survive_save_load_round_trip(self, tmp_path):
        report = RunReport(faults={"retries": 1, "op_errors": {}})
        report.save(tmp_path / "report.json")
        loaded = RunReport.load(tmp_path / "report.json")
        assert loaded["faults"]["retries"] == 1


class TestChaosHarnessUnits:
    def test_raise_fault_is_deterministic_and_row_targeted(self):
        op = poisoned_mapper()
        with pytest.raises(ChaosFault):
            op.process({"text": "has POISON inside"})
        clean = op.process({"text": "all good"})
        assert clean["text"] == "all good"

    def test_times_bounded_fault_burns_out(self, tmp_path):
        plan = FaultPlan(state_dir=tmp_path).inject(
            "whitespace_normalization_mapper", times=1
        )
        op = load_ops([{"whitespace_normalization_mapper": {}}])[0]
        plan.install([op])
        with pytest.raises(ChaosFault):
            op.process({"text": "x"})
        assert plan.fired() == 1
        assert op.process({"text": "x"})["text"] == "x"  # fuse blown: clean now
        plan.reset()
        with pytest.raises(ChaosFault):
            op.process({"text": "x"})

    def test_times_bounded_fault_requires_state_dir(self):
        with pytest.raises(ValueError, match="state_dir"):
            FaultPlan().inject("whitespace_normalization_mapper", times=1)

    def test_install_recurses_into_fused_filters(self):
        from repro.ops import build_ops

        ops = build_ops(
            [
                {"words_num_filter": {"min_num": 1}},
                {"word_repetition_filter": {}},
            ],
            op_fusion=True,
        )
        assert any(hasattr(op, "fused_filters") for op in ops)
        FaultPlan().inject("words_num_filter", match="POISON").install(ops)
        fused = next(op for op in ops if hasattr(op, "fused_filters"))
        with pytest.raises(ChaosFault):
            fused.compute_stats({"text": "POISON here"})
