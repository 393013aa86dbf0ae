"""Tests for recipe configuration loading/validation and the end-to-end executor."""

import json

import pytest

from repro.core.config import RecipeConfig, load_config, save_config, validate_config
from repro.core.dataset import NestedDataset
from repro.core.errors import ConfigError
from repro.core.executor import Executor
from repro.core.sample import Fields


def sample_rows():
    return [
        {"text": "This is a reasonably long and clean document about data systems."},
        {"text": "tiny"},
        {"text": "This is a reasonably long and clean document about data systems."},
        {"text": "Visit https://spam.example.com now " * 5},
    ]


PROCESS = [
    {"whitespace_normalization_mapper": {}},
    {"clean_links_mapper": {}},
    {"text_length_filter": {"min_len": 20}},
    {"document_deduplicator": {}},
]


class TestConfig:
    def test_load_from_dict(self):
        config = load_config({"project_name": "p", "process": PROCESS})
        assert isinstance(config, RecipeConfig)
        assert config.op_names() == [
            "whitespace_normalization_mapper",
            "clean_links_mapper",
            "text_length_filter",
            "document_deduplicator",
        ]

    def test_unknown_operator_rejected(self):
        with pytest.raises(ConfigError, match="unknown operator"):
            load_config({"process": [{"nonexistent_op": {}}]})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown recipe keys"):
            load_config({"process": [], "typo_key": 1})

    def test_invalid_process_entry_rejected(self):
        with pytest.raises(ConfigError):
            load_config({"process": [{"a": {}, "b": {}}]})

    def test_invalid_np_rejected(self):
        with pytest.raises(ConfigError):
            validate_config(RecipeConfig(np=0))

    @pytest.mark.parametrize("trace_num", ["ten", -3, 2.5, True, None])
    def test_invalid_trace_num_rejected(self, trace_num):
        with pytest.raises(ConfigError, match="trace_num"):
            load_config({"process": [], "trace_num": trace_num})
        assert load_config({"process": [], "trace_num": 0}).trace_num == 0

    def test_load_from_json_file(self, tmp_path):
        path = tmp_path / "recipe.json"
        path.write_text(json.dumps({"project_name": "file-recipe", "process": PROCESS}))
        config = load_config(path)
        assert config.project_name == "file-recipe"

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "missing.yaml")

    def test_save_and_reload_roundtrip(self, tmp_path):
        config = load_config({"project_name": "round", "process": PROCESS})
        path = save_config(config, tmp_path / "recipe.json")
        reloaded = load_config(path)
        assert reloaded.project_name == "round"
        assert reloaded.op_names() == config.op_names()

    def test_yaml_roundtrip_when_available(self, tmp_path):
        yaml = pytest.importorskip("yaml")
        config = load_config({"project_name": "yamlized", "process": PROCESS})
        path = save_config(config, tmp_path / "recipe.yaml")
        assert yaml.safe_load(path.read_text())["project_name"] == "yamlized"
        assert load_config(path).project_name == "yamlized"


class TestExecutor:
    def test_run_on_in_memory_dataset(self):
        executor = Executor({"process": PROCESS})
        out = executor.run(NestedDataset.from_list(sample_rows()))
        # tiny doc dropped, duplicate removed
        assert len(out) == 2
        assert executor.last_report["num_output_samples"] == 2

    def test_run_requires_dataset_or_path(self):
        with pytest.raises(ValueError):
            Executor({"process": PROCESS}).run()

    def test_run_from_jsonl_path_and_export(self, tmp_path):
        input_path = tmp_path / "input.jsonl"
        with input_path.open("w") as handle:
            for row in sample_rows():
                handle.write(json.dumps(row) + "\n")
        export_path = tmp_path / "out.jsonl"
        executor = Executor(
            {
                "dataset_path": str(input_path),
                "export_path": str(export_path),
                "process": PROCESS,
                "work_dir": str(tmp_path / "work"),
            }
        )
        out = executor.run()
        assert export_path.exists()
        assert len(export_path.read_text().splitlines()) == len(out)

    def test_fusion_and_no_fusion_agree(self):
        data = NestedDataset.from_list(sample_rows())
        plain = Executor({"process": PROCESS, "op_fusion": False}).run(data)
        fused = Executor({"process": PROCESS, "op_fusion": True}).run(data)
        assert sorted(row["text"] for row in plain) == sorted(row["text"] for row in fused)

    def test_tracer_report_present_when_enabled(self):
        executor = Executor({"process": PROCESS, "open_tracer": True, "work_dir": "./outputs-test"})
        executor.run(NestedDataset.from_list(sample_rows()))
        assert len(executor.last_report["trace"]) == len(PROCESS)

    def test_cache_hits_on_second_run(self, tmp_path):
        config = {
            "process": PROCESS,
            "use_cache": True,
            "cache_dir": str(tmp_path / "cache"),
        }
        data = NestedDataset.from_list(sample_rows())
        first = Executor(config)
        first.run(data)
        assert first.last_report["cache"]["hits"] == 0
        second = Executor(config)
        second.run(data)
        assert second.last_report["cache"]["hits"] == len(PROCESS)

    def test_checkpoint_resume(self, tmp_path):
        config = {
            "process": PROCESS,
            "use_checkpoint": True,
            "checkpoint_dir": str(tmp_path / "ckpt"),
        }
        data = NestedDataset.from_list(sample_rows())
        out_first = Executor(config).run(data)
        # a second executor finds the completed checkpoint and resumes from it
        out_second = Executor(config).run(data)
        assert sorted(r["text"] for r in out_first) == sorted(r["text"] for r in out_second)

    def test_checkpoint_saved_on_cache_hits(self, tmp_path):
        """A resume after a fully cache-hit run must not restart from a stale op index."""
        config = {
            "process": PROCESS,
            "use_cache": True,
            "cache_dir": str(tmp_path / "cache"),
            "use_checkpoint": True,
            "checkpoint_dir": str(tmp_path / "ckpt"),
        }
        data = NestedDataset.from_list(sample_rows())
        Executor(config).run(data)

        # wipe the checkpoint, then re-run: every op is now a cache hit, and
        # the checkpoint must still advance to the end of the recipe
        second = Executor(config)
        (second.checkpoint.checkpoint_dir / second.checkpoint.STATE_FILE).unlink()
        second.run(data)
        assert second.last_report["cache"]["hits"] == len(PROCESS)
        state = second.checkpoint.read_state()
        assert state["op_index"] == len(PROCESS)
        assert state["op_names"] == [op.name for op in second.ops]
        # the checkpoint points at the chain of cache entries, one per op; no
        # second copy was written
        assert len(state["keys"]) == len(PROCESS)
        assert all(second.store.has(key) for key in state["keys"])

    def test_plan_describes_ops(self):
        executor = Executor({"process": PROCESS, "op_fusion": False})
        categories = [entry["category"] for entry in executor.plan]
        assert categories == ["mapper", "mapper", "filter", "deduplicator"]

    def test_stale_checkpoint_not_resumed_after_config_change(self, tmp_path):
        """Regression: resume used to match on op *names* only, so editing a
        filter's threshold silently reused data produced by the old config."""
        data = NestedDataset.from_list(
            [{"text": "short doc here padd"}, {"text": "a much longer document " * 4}]
        )
        base = {
            "process": [{"text_length_filter": {"min_len": 10}}],
            "use_checkpoint": True,
            "checkpoint_dir": str(tmp_path / "ckpt"),
        }
        first = Executor(base).run(data)
        assert len(first) == 2

        # same op name, different threshold: the checkpoint must be ignored
        edited = dict(base)
        edited["process"] = [{"text_length_filter": {"min_len": 50}}]
        second = Executor(edited).run(data)
        assert len(second) == 1

        # unchanged config still resumes from the completed checkpoint
        third = Executor(edited).run(data)
        assert len(third) == 1

    def test_checkpoint_state_records_op_hashes(self, tmp_path):
        config = {
            "process": PROCESS,
            "use_checkpoint": True,
            "checkpoint_dir": str(tmp_path / "ckpt"),
        }
        executor = Executor(config)
        executor.run(NestedDataset.from_list(sample_rows()))
        state = executor.checkpoint.read_state()
        assert len(state["op_hashes"]) == len(PROCESS)
