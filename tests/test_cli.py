"""Tests for the zero-code command-line interface."""

import json

import pytest

from repro.cli import main


@pytest.fixture()
def dataset_file(tmp_path):
    path = tmp_path / "data.jsonl"
    rows = [
        {"text": "This is a reasonably long and clean document about data processing systems."},
        {"text": "tiny"},
        {"text": "This is a reasonably long and clean document about data processing systems."},
    ]
    path.write_text("\n".join(json.dumps(row) for row in rows))
    return path


class TestListCommands:
    def test_list_ops(self, capsys):
        assert main(["list-ops"]) == 0
        output = capsys.readouterr().out
        assert "text_length_filter" in output
        assert len(output.splitlines()) >= 50

    def test_list_recipes(self, capsys):
        assert main(["list-recipes"]) == 0
        assert "pretrain-c4-refine-en" in capsys.readouterr().out


class TestProcess:
    def test_process_with_builtin_recipe(self, dataset_file, tmp_path, capsys):
        export = tmp_path / "out.jsonl"
        code = main(
            [
                "process",
                "--dataset", str(dataset_file),
                "--recipe", "dedup-only-exact",
                "--export", str(export),
                "--work-dir", str(tmp_path / "work"),
            ]
        )
        assert code == 0
        assert len(export.read_text().splitlines()) == 2  # duplicate removed
        assert "kept 2 samples" in capsys.readouterr().out

    def test_process_stream_matches_in_memory(self, dataset_file, tmp_path, capsys):
        memory_export = tmp_path / "memory.jsonl"
        stream_export = tmp_path / "stream.jsonl"
        common = ["process", "--dataset", str(dataset_file), "--recipe", "dedup-only-exact"]
        assert main(common + ["--export", str(memory_export), "--work-dir", str(tmp_path / "wm")]) == 0
        code = main(
            common
            + [
                "--export", str(stream_export),
                "--work-dir", str(tmp_path / "ws"),
                "--stream", "--max-shard-rows", "2",
            ]
        )
        assert code == 0
        assert "kept 2 samples" in capsys.readouterr().out
        assert stream_export.read_bytes() == memory_export.read_bytes()

    def test_shard_output_implies_streaming(self, dataset_file, tmp_path, capsys):
        code = main(
            [
                "process",
                "--dataset", str(dataset_file),
                "--recipe", "dedup-only-exact",
                "--export", str(tmp_path / "out.jsonl.gz"),
                "--work-dir", str(tmp_path / "work"),
                "--shard-output",
            ]
        )
        assert code == 0
        assert "plan: mode=streaming" in capsys.readouterr().out
        assert list(tmp_path.glob("out-*.jsonl.gz"))

    def test_shard_output_conflicts_with_memory_mode(self, dataset_file, tmp_path):
        with pytest.raises(SystemExit, match="conflicts"):
            main(
                [
                    "process",
                    "--dataset", str(dataset_file),
                    "--recipe", "dedup-only-exact",
                    "--export", str(tmp_path / "out.jsonl"),
                    "--work-dir", str(tmp_path / "work"),
                    "--shard-output", "--mode", "memory",
                ]
            )

    def test_process_with_recipe_file(self, dataset_file, tmp_path):
        recipe_path = tmp_path / "recipe.json"
        recipe_path.write_text(
            json.dumps({"project_name": "cli", "process": [{"text_length_filter": {"min_len": 10}}]})
        )
        export = tmp_path / "out.jsonl"
        code = main(
            [
                "process",
                "--dataset", str(dataset_file),
                "--recipe-file", str(recipe_path),
                "--export", str(export),
            ]
        )
        assert code == 0
        assert len(export.read_text().splitlines()) == 2  # 'tiny' dropped

    def test_recipe_and_recipe_file_are_exclusive(self, dataset_file):
        with pytest.raises(SystemExit):
            main(
                [
                    "process",
                    "--dataset", str(dataset_file),
                    "--recipe", "dedup-only-exact",
                    "--recipe-file", "whatever.json",
                ]
            )

    def test_missing_recipe_rejected(self, dataset_file):
        with pytest.raises(SystemExit):
            main(["process", "--dataset", str(dataset_file)])


class TestProcessModes:
    def test_mode_auto_prints_plan(self, dataset_file, tmp_path, capsys):
        code = main(
            [
                "process",
                "--dataset", str(dataset_file),
                "--recipe", "dedup-only-exact",
                "--export", str(tmp_path / "out.jsonl"),
                "--work-dir", str(tmp_path / "work"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "plan: mode=memory" in out

    def test_mode_streaming_and_budget_driven_auto(self, dataset_file, tmp_path, capsys):
        explicit = tmp_path / "explicit.jsonl"
        budgeted = tmp_path / "budgeted.jsonl"
        common = ["process", "--dataset", str(dataset_file), "--recipe", "dedup-only-exact"]
        assert main(
            common
            + ["--export", str(explicit), "--work-dir", str(tmp_path / "w1"), "--mode", "streaming"]
        ) == 0
        assert "plan: mode=streaming" in capsys.readouterr().out
        # a 1 MiB budget forces streaming via auto mode too... the dataset is
        # tiny, so instead assert auto+budget still produces identical bytes
        assert main(
            common
            + ["--export", str(budgeted), "--work-dir", str(tmp_path / "w2"), "--memory-budget-mb", "1"]
        ) == 0
        assert budgeted.read_bytes() == explicit.read_bytes()

    def test_stream_flag_conflicts_with_memory_mode(self, dataset_file, tmp_path):
        with pytest.raises(SystemExit, match="conflicts"):
            main(
                [
                    "process",
                    "--dataset", str(dataset_file),
                    "--recipe", "dedup-only-exact",
                    "--work-dir", str(tmp_path / "w"),
                    "--stream", "--mode", "memory",
                ]
            )

    def test_schema_invalid_recipe_file_fails_before_running(self, dataset_file, tmp_path):
        from repro.core.errors import SchemaError

        recipe_path = tmp_path / "recipe.json"
        recipe_path.write_text(
            json.dumps({"process": [{"text_length_filter": {"min_len": -3}}]})
        )
        with pytest.raises(SchemaError, match="min_len"):
            main(
                [
                    "process",
                    "--dataset", str(dataset_file),
                    "--recipe-file", str(recipe_path),
                    "--work-dir", str(tmp_path / "w"),
                ]
            )


class TestValidateRecipe:
    def test_valid_builtin_recipe(self, capsys):
        assert main(["validate-recipe", "--recipe", "dedup-only-exact"]) == 0
        assert "valid" in capsys.readouterr().out

    def test_all_builtins_valid(self, capsys):
        assert main(["validate-recipe", "--all"]) == 0
        assert "all 22 built-in recipes are valid" in capsys.readouterr().out

    def test_bad_recipe_file_reports_every_problem(self, tmp_path, capsys):
        recipe_path = tmp_path / "bad.json"
        recipe_path.write_text(
            json.dumps(
                {
                    "npp": 3,
                    "process": [
                        {"text_length_filter": {"min_len": -5, "max_len": "big"}},
                        {"txt_length_filter": {}},
                    ],
                }
            )
        )
        assert main(["validate-recipe", "--recipe-file", str(recipe_path)]) == 1
        out = capsys.readouterr().out
        assert "4 problem(s)" in out
        assert "did you mean: np" in out
        assert "text_length_filter.min_len" in out and "below the minimum" in out
        assert "text_length_filter.max_len" in out and "wrong type" in out
        assert "did you mean: text_length_filter" in out

    def test_requires_a_recipe_argument(self):
        with pytest.raises(SystemExit):
            main(["validate-recipe"])

    def test_unknown_builtin_name_reported_not_raised(self, capsys):
        assert main(["validate-recipe", "--recipe", "dedup-only-exat"]) == 1
        out = capsys.readouterr().out
        assert "did you mean" in out and "dedup-only-exact" in out

    def test_missing_recipe_file_reported_not_raised(self, tmp_path, capsys):
        assert main(["validate-recipe", "--recipe-file", str(tmp_path / "nope.yaml")]) == 1
        assert "recipe file not found" in capsys.readouterr().out

    def test_recipe_and_file_exclusive(self, tmp_path):
        with pytest.raises(SystemExit, match="not both"):
            main(
                [
                    "validate-recipe",
                    "--recipe", "dedup-only-exact",
                    "--recipe-file", str(tmp_path / "x.json"),
                ]
            )


class TestAnalyzeAndSynth:
    def test_analyze_prints_probe_and_writes_summary(self, dataset_file, tmp_path, capsys):
        summary_path = tmp_path / "summary.json"
        assert main(["analyze", "--dataset", str(dataset_file), "--output", str(summary_path)]) == 0
        assert "Data probe over 3 samples" in capsys.readouterr().out
        assert "text_len" in json.loads(summary_path.read_text())

    def test_synth_writes_corpus(self, tmp_path, capsys):
        output = tmp_path / "corpus.jsonl"
        assert main(["synth", "--corpus", "wikipedia", "--num-samples", "7", "--output", str(output)]) == 0
        assert len(output.read_text().splitlines()) == 7
        assert "wrote 7 samples" in capsys.readouterr().out

    def test_unknown_corpus_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["synth", "--corpus", "the-pile", "--output", str(tmp_path / "x.jsonl")])
