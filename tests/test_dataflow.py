"""Tests for :mod:`repro.tools.dataflow`: extractor, checker and wiring.

Golden bad/clean recipe fixtures live under ``tests/fixtures/dataflow/``;
synthetic operator modules there (``*_ops.py``) are parsed by the effect
extractor, never imported — the same convention as the lint fixtures.  The
bad fixtures must produce exactly the expected (rule, step) pairs and the
clean ones nothing; every built-in recipe must come out dataflow-clean.
"""

import inspect
import json
from pathlib import Path

import pytest

from repro.api import Pipeline, validate_recipe
from repro.cli import main
from repro.core.config import RecipeConfig, load_config
from repro.core.dataset import NestedDataset
from repro.core.errors import ConfigError, DataflowWarning
from repro.core.executor import Executor
from repro.core.planner import ExecutionPlan
from repro.core.registry import OPERATORS
from repro.core.sample import Fields
from repro.core.schema import schema_for
from repro.recipes import BUILT_IN_RECIPES
from repro.tools.dataflow import (
    DATAFLOW_RULES,
    EFFECT_SIGNATURE_VERSION,
    catalog_as_dict,
    check_recipe,
    effect_catalog,
    effect_signature,
    extract_effects_from_path,
    render_json,
    render_json_many,
    render_text,
)
from repro.tools.dataflow import effects
from repro.tools.dataflow.effects import op_module_path, recipe_signatures
from repro.tools.lint.framework import LintModule

FIXTURE_DIR = Path(__file__).parent / "fixtures" / "dataflow"

# rule id -> (bad fixture, expected (rule, 1-based step index) pairs)
GOLDEN = {
    "undefined-read": ("bad_undefined_read.json", [("undefined-read", 1)]),
    "order-hazard": (
        "bad_order_hazard.json",
        [("order-hazard", 1), ("order-hazard", 4)],
    ),
    "dead-write": ("bad_dead_write.json", [("dead-write", 1), ("dead-write", 3)]),
    "fusion-unsafe": ("bad_fusion_unsafe.json", [("fusion-unsafe", 2)]),
    "stream-unsafe": (
        "bad_stream_unsafe.json",
        [("stream-unsafe", 1), ("stream-unsafe", 2)],
    ),
}

CLEAN_FIXTURES = sorted(
    path.name for path in FIXTURE_DIR.glob("clean_*.json")
)

BROKEN_RECIPE = {
    "project_name": "broken",
    "process": [
        {"topk_specified_field_selector": {"field_key": "__stats__.text_length", "topk": 5}}
    ],
}


def fixture_signatures() -> dict:
    """Built-in catalog extended with the synthetic fixture ops."""
    signatures = dict(effect_catalog())
    for path in sorted(FIXTURE_DIR.glob("*_ops.py")):
        signatures.update(extract_effects_from_path(path))
    return signatures


def check_fixture(name: str):
    payload = json.loads((FIXTURE_DIR / name).read_text(encoding="utf-8"))
    return check_recipe(payload, signatures=fixture_signatures())


def pairs(findings) -> list[tuple[str, int]]:
    return [(finding.rule, finding.index) for finding in findings]


class TestEffectExtractor:
    def test_every_registered_op_has_a_nonempty_signature(self):
        for name in OPERATORS.list():
            signature = effect_signature(name)
            assert signature is not None, f"{name} has no effect signature"
            assert not signature.is_empty, f"{name} has an empty effect signature"

    def test_filter_signature_names_its_stats_key(self):
        signature = effect_signature("text_length_filter")
        assert "__stats__.text_len" in signature.writes
        assert "__stats__.text_len" in signature.reads
        assert "<text_key>" in signature.reads

    def test_dedup_signature_covers_hash_lifecycle(self):
        signature = effect_signature("document_deduplicator")
        assert "__hash__" in signature.writes
        assert "__hash__" in signature.removes

    def test_context_keys_are_extracted(self):
        signature = effect_signature("words_num_filter")
        assert "words" in signature.context_writes

    def test_row_effect_fills_fieldless_ops(self):
        signature = effect_signature("random_selector")
        assert not signature.reads and not signature.writes
        assert signature.row_effect == "keeps a chosen subset of rows"

    def test_resolve_binds_placeholders(self):
        signature = effect_signature("topk_specified_field_selector")
        effects = signature.resolve({"field_key": "meta.stars"})
        assert "meta.stars" in effects.reads
        # unresolvable placeholder (empty field_key default) drops the path
        assert not signature.resolve({}).reads - {Fields.text}

    def test_catalog_is_versioned(self):
        payload = catalog_as_dict()
        assert payload["version"] == EFFECT_SIGNATURE_VERSION
        assert len(payload["signatures"]) == len(OPERATORS)

    def test_schema_carries_effects(self):
        schema = schema_for(OPERATORS.get("text_length_filter"))
        assert "__stats__.text_len" in schema.effects().writes


#: the stat keys each batched filter writes as stat columns (``write_stat``)
BATCHED_FILTER_STATS = {
    "alphanumeric_filter": {"alnum_ratio", "alpha_token_ratio"},
    "character_repetition_filter": {"char_rep_ratio"},
    "digit_ratio_filter": {"digit_ratio"},
    "flagged_words_filter": {"flagged_words_ratio"},
    "special_characters_filter": {"special_char_ratio"},
    "stopwords_filter": {"stopwords_ratio"},
    "text_length_filter": {"text_len"},
    "whitespace_ratio_filter": {"whitespace_ratio"},
    "word_repetition_filter": {"word_rep_ratio"},
    "words_num_filter": {"num_words"},
}


class TestStatColumns:
    """A batched filter's ``write_stat`` is its write, its ``read_stat`` a read."""

    @pytest.mark.parametrize("name", sorted(BATCHED_FILTER_STATS))
    def test_a_batched_filter_writes_its_stat_columns(self, name):
        expected = {f"{Fields.stats}.{key}" for key in BATCHED_FILTER_STATS[name]}
        assert set(effect_signature(name).writes) == expected
        # the batched methods alone, without the per-row ones, say the same
        (info,) = [info for info in LintModule.parse(op_module_path(name)).op_classes
                   if info.registered_name == name]
        info.methods = {key: method for key, method in info.methods.items()
                        if key.endswith("_batched")}
        batched = effects.extract_signature(info)
        assert set(batched.writes) == expected
        assert expected <= set(batched.reads)

    def test_the_batched_filters_are_those_that_write_stat_columns(self):
        import repro.ops.filters as filters

        writers = {path.stem for path in Path(filters.__file__).parent.glob("*_filter.py")
                   if "write_stat(" in path.read_text()}
        assert writers == set(BATCHED_FILTER_STATS)


@pytest.fixture(scope="session")
def full_scan():
    """The built-in pool's catalog from one full scan, shared by the tests
    comparing the per-module lookup against it."""
    return effect_catalog(refresh=True)


class TestPerModuleLookup:
    """A recipe's preflight parses only its ops' modules, to the same effect."""

    def test_every_registered_op_lives_at_its_conventional_path(self):
        for name in OPERATORS.list():
            defined = Path(inspect.getsourcefile(OPERATORS.get(name)))
            assert defined == op_module_path(name), name

    def test_per_module_signatures_equal_the_full_scan(self, monkeypatch, full_scan):
        monkeypatch.setattr(effects, "_CATALOG_CACHE", None)
        effects._module_signature.cache_clear()
        names = OPERATORS.list()
        per_module = recipe_signatures(names)
        assert effects._CATALOG_CACHE is None  # no full scan was needed
        assert per_module == {name: full_scan[name] for name in names}

    def test_a_check_parses_only_the_modules_of_its_ops(self, monkeypatch):
        monkeypatch.setattr(effects, "_CATALOG_CACHE", None)
        effects._module_signature.cache_clear()
        parsed = []
        parse = effects.LintModule.parse
        monkeypatch.setattr(effects.LintModule, "parse",
                            lambda path: parsed.append(Path(path).name) or parse(path))
        recipe = {"process": [{"words_num_filter": {}}, {"lowercase_mapper": {}},
                              {"words_num_filter": {"min_num": 3}}]}
        assert check_recipe(recipe).exit_code == 0
        assert sorted(parsed) == ["lowercase_mapper.py", "words_num_filter.py"]
        # a name off the conventional path falls back to the full scan, and
        # a name is never read as a path
        for name in ("no_such_op", "../../cli_mapper", 7):
            monkeypatch.setattr(effects, "_CATALOG_CACHE", None)
            parsed.clear()
            assert check_recipe({"process": [{name: {}}]}).exit_code == 0
            assert effects._CATALOG_CACHE is not None and len(parsed) > len(OPERATORS)

    def test_findings_are_those_of_the_full_scan(self, monkeypatch, full_scan):
        every_op = {"process": [{name: {}} for name in OPERATORS.list()]}
        recipes = [every_op, BROKEN_RECIPE, *BUILT_IN_RECIPES.values()]
        monkeypatch.setattr(effects, "_CATALOG_CACHE", None)
        effects._module_signature.cache_clear()
        findings = [render_json(check_recipe(recipe)) for recipe in recipes]
        assert findings == [render_json(check_recipe(recipe, signatures=full_scan))
                            for recipe in recipes]
        assert json.loads(findings[0])["findings"]  # the every-op recipe has some


class TestGoldenFixtures:
    def test_every_rule_has_a_golden_fixture(self):
        assert sorted(GOLDEN) == sorted(DATAFLOW_RULES)

    def test_every_rule_has_a_clean_fixture(self):
        for rule_id in DATAFLOW_RULES:
            assert f"clean_{rule_id.replace('-', '_')}.json" in CLEAN_FIXTURES

    @pytest.mark.parametrize("rule_id", sorted(GOLDEN))
    def test_bad_fixture_flags_exact_rule_and_step(self, rule_id):
        relpath, expected = GOLDEN[rule_id]
        result = check_fixture(relpath)
        assert pairs(result.findings) == expected
        assert result.exit_code == 1
        for finding in result.findings:
            assert finding.severity in ("error", "warning")
            assert finding.message
            assert finding.op

    @pytest.mark.parametrize("relpath", CLEAN_FIXTURES)
    def test_clean_fixture_is_clean_under_all_rules(self, relpath):
        result = check_fixture(relpath)
        assert pairs(result.findings) == []
        assert result.suppressed == []
        assert result.exit_code == 0


class TestCheckerSemantics:
    def test_every_built_in_recipe_is_dataflow_clean(self):
        for name in sorted(BUILT_IN_RECIPES):
            result = check_recipe(BUILT_IN_RECIPES[name])
            assert not result.findings, (
                f"built-in recipe {name} has dataflow findings: "
                + "; ".join(str(f) for f in result.findings)
            )
            assert not result.suppressed, f"{name} relies on dataflow_ignore"

    def test_undefined_read_suggests_neighbours(self):
        result = check_recipe(BROKEN_RECIPE)
        assert len(result.findings) == 1
        assert "did you mean" in result.findings[0].message
        assert "__stats__.text_len" in result.findings[0].message

    def test_user_fields_are_open_world_by_default(self):
        result = check_recipe({
            "process": [
                {"specified_field_filter": {"field_key": "meta.language", "target_values": ["en"]}}
            ]
        })
        assert result.findings == []

    def test_input_fields_opt_into_closed_world(self):
        result = check_recipe({
            "input_fields": ["meta.lang"],
            "process": [
                {"specified_field_filter": {"field_key": "meta.language", "target_values": ["en"]}}
            ],
        })
        assert pairs(result.findings) == [("undefined-read", 1)]
        assert "meta.lang" in result.findings[0].message

    @pytest.mark.parametrize("stream", [False, True])
    def test_stream_unsafe_fires_in_every_mode(self, stream):
        """Memory mode takes the same global step as streaming: the recipe's
        ``stream`` flag no longer decides whether the rule applies."""
        recipe = {"process": ["lowercase_mapper"], "stream": stream}
        assert check_recipe(recipe).findings == []
        bad = json.loads((FIXTURE_DIR / "bad_stream_unsafe.json").read_text())
        bad["stream"] = stream
        loud = check_recipe(bad, signatures=fixture_signatures())
        assert [f.rule for f in loud.findings] == ["stream-unsafe", "stream-unsafe"]

    def test_fusion_unsafe_groups_filters_by_text_field(self):
        """The checker groups like ``fuse_operators``: alpha and beta share the
        words context, but on two fields they do not fuse, so nothing moves
        alpha behind the step that reads its stat."""
        payload = json.loads((FIXTURE_DIR / "bad_fusion_unsafe.json").read_text())
        payload["process"][2]["wordcount_beta_filter"]["text_key"] = "title"
        assert check_recipe(payload, signatures=fixture_signatures()).findings == []
        payload["process"][0]["wordcount_alpha_filter"]["text_key"] = "title"
        loud = check_recipe(payload, signatures=fixture_signatures())
        assert pairs(loud.findings) == [("fusion-unsafe", 2)]

    def test_dataflow_ignore_suppresses_findings(self):
        payload = dict(BROKEN_RECIPE, dataflow_ignore=["undefined-read@1"])
        result = check_recipe(payload)
        assert result.findings == []
        assert pairs(result.suppressed) == [("undefined-read", 1)]
        assert result.exit_code == 0

    def test_dataflow_ignore_validates_rule_names(self):
        payload = dict(BROKEN_RECIPE, dataflow_ignore=["undefined-red"])
        with pytest.raises(ConfigError, match="undefined-read"):
            load_config(payload)


class TestReporters:
    def test_text_report_names_rule_step_and_footer(self):
        result = check_recipe(BROKEN_RECIPE)
        text = render_text(result)
        assert "found 1 finding(s):" in text
        assert "[undefined-read]" in text
        assert "step 1 (topk_specified_field_selector)" in text
        assert "1 error(s) / 0 warning(s)" in text

    def test_clean_report_mentions_recipe(self):
        result = check_recipe({"project_name": "tidy", "process": ["lowercase_mapper"]})
        assert "dataflow clean" in render_text(result)
        assert "'tidy'" in render_text(result)

    def test_json_schema_is_stable(self):
        """The documented ``repro dataflow --json`` contract (docs/dataflow.md)."""
        payload = json.loads(render_json(check_recipe(BROKEN_RECIPE)))
        assert list(payload) == [
            "version", "rules", "recipe", "exit_code", "ops_checked",
            "counts", "findings", "suppressed",
        ]
        assert payload["version"] == EFFECT_SIGNATURE_VERSION
        assert payload["rules"] == list(DATAFLOW_RULES)
        assert payload["exit_code"] == 1
        finding = payload["findings"][0]
        assert list(finding) == ["rule", "severity", "step", "op", "field", "message"]
        assert finding["step"] == 1

    def test_json_many_aggregates_exit_code(self):
        results = [check_recipe(BROKEN_RECIPE), check_recipe({"process": []})]
        payload = json.loads(render_json_many(results))
        assert payload["exit_code"] == 1
        assert len(payload["recipes"]) == 2


class TestCli:
    def test_dataflow_command_exits_nonzero_on_broken_recipe(self, tmp_path, capsys):
        recipe = tmp_path / "broken.json"
        recipe.write_text(json.dumps(BROKEN_RECIPE), encoding="utf-8")
        assert main(["dataflow", "--recipe-file", str(recipe)]) == 1
        assert "[undefined-read]" in capsys.readouterr().out

    def test_dataflow_json_output(self, tmp_path, capsys):
        recipe = tmp_path / "broken.json"
        recipe.write_text(json.dumps(BROKEN_RECIPE), encoding="utf-8")
        assert main(["dataflow", "--recipe-file", str(recipe), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == EFFECT_SIGNATURE_VERSION
        assert payload["findings"][0]["rule"] == "undefined-read"

    def test_dataflow_all_builtins_clean(self, capsys):
        assert main(["dataflow", "--all"]) == 0
        assert "22/22" in capsys.readouterr().out or "dataflow-clean" in ""

    def test_lint_recipes_delegates_to_dataflow(self, capsys):
        assert main(["lint", "--recipes"]) == 0
        assert "dataflow-clean" in capsys.readouterr().out

    def test_dataflow_list_rules(self, capsys):
        assert main(["dataflow", "--list-rules"]) == 0
        output = capsys.readouterr().out
        for rule_id in DATAFLOW_RULES:
            assert rule_id in output


class TestWiring:
    def test_validate_recipe_reports_dataflow_findings(self):
        issues = validate_recipe(BROKEN_RECIPE)
        assert any("[undefined-read]" in str(issue) for issue in issues)
        assert any("step 1" in str(issue) for issue in issues)

    def test_validate_recipe_schema_errors_take_precedence(self):
        issues = validate_recipe({"process": ["no_such_op"]})
        assert issues
        assert not any("[undefined-read]" in str(issue) for issue in issues)

    def test_pipeline_plan_flags_broken_recipe(self):
        plan = Pipeline.from_recipe(BROKEN_RECIPE).plan(mode="memory")
        assert plan.dataflow
        assert plan.dataflow[0]["rule"] == "undefined-read"
        assert "dataflow finding" in plan.describe()

    def test_pipeline_plan_clean_recipe_has_no_findings(self):
        plan = Pipeline.new().apply("lowercase_mapper").plan(mode="memory")
        assert plan.dataflow == []

    def test_execution_plan_round_trips_dataflow(self):
        plan = ExecutionPlan(mode="memory", dataflow=[{"rule": "dead-write"}])
        rebuilt = ExecutionPlan.from_dict(plan.as_dict())
        assert rebuilt.dataflow == [{"rule": "dead-write"}]

    def test_executor_warns_by_default(self, tmp_path):
        cfg = load_config(dict(BROKEN_RECIPE, work_dir=str(tmp_path)))
        dataset = NestedDataset.from_list([{"text": "hello"}])
        with Executor(cfg) as executor:
            with pytest.warns(DataflowWarning, match="undefined-read"):
                executor.execute(dataset=dataset, mode="memory")
        assert executor.last_plan.dataflow[0]["rule"] == "undefined-read"

    def test_executor_strict_dataflow_fails_before_running(self, tmp_path):
        cfg = load_config(dict(
            BROKEN_RECIPE, work_dir=str(tmp_path), strict_dataflow=True
        ))
        dataset = NestedDataset.from_list([{"text": "hello"}])
        with Executor(cfg) as executor:
            with pytest.raises(ConfigError, match="undefined-read"):
                executor.execute(dataset=dataset, mode="memory")
            assert executor.last_report is None or executor.last_plan is None

    def test_executor_clean_recipe_does_not_warn(self, tmp_path):
        cfg = RecipeConfig(process=["lowercase_mapper"], work_dir=str(tmp_path))
        dataset = NestedDataset.from_list([{"text": "HELLO"}])
        import warnings as warnings_module

        with Executor(cfg) as executor:
            with warnings_module.catch_warnings():
                warnings_module.simplefilter("error", DataflowWarning)
                executor.execute(dataset=dataset, mode="memory")
        assert executor.last_plan.dataflow == []
