"""Golden-fixture tests for the lint rules in :mod:`repro.tools.lint`.

Each rule has a bad and a clean fixture module under ``tests/fixtures/lint/``;
the bad ones must produce exactly the expected (rule, line) pairs and the
clean ones must produce nothing, across *all* rules.  Fixtures are parsed,
never imported, so they stay out of the operator registry.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.tools.lint import Violation, lint_paths, render_json, render_text
from repro.tools.lint.framework import resolve_rules
from repro.tools.lint.rules import all_rule_ids

FIXTURE_DIR = Path(__file__).parent / "fixtures" / "lint"

# rule id -> (bad fixture relative to FIXTURE_DIR, expected (rule, line) pairs)
GOLDEN = {
    "purity-time": ("bad_purity_time.py", [("purity-time", 14)]),
    "purity-random": ("bad_purity_random.py", [("purity-random", 14), ("purity-random", 15)]),
    "purity-env": ("bad_purity_env.py", [("purity-env", 15), ("purity-env", 19)]),
    "purity-io": ("bad_purity_io.py", [("purity-io", 15), ("purity-io", 17)]),
    "purity-inplace": (
        "bad_purity_inplace.py",
        [("purity-inplace", line) for line in (12, 14, 15, 16, 21, 23, 24)],
    ),
    "purity-global": (
        "bad_purity_global.py",
        [("purity-global", 16), ("purity-global", 18), ("purity-global", 19)],
    ),
    "config-completeness": (
        "bad_config_completeness.py",
        [("config-completeness", 16), ("config-completeness", 19)],
    ),
    "param-spec-coverage": (
        "bad_param_spec_coverage.py",
        [("param-spec-coverage", 11), ("param-spec-coverage", 15)],
    ),
    "schema-drift": (
        "bad_schema_drift.py",
        [("schema-drift", 11), ("schema-drift", 11), ("schema-drift", 17)],
    ),
    "batched-parity": ("bad_batched_parity.py", [("batched-parity", 11)]),
    "picklability": (
        "bad_picklability.py",
        [("picklability", 15), ("picklability", 16), ("picklability", 17)],
    ),
    "registry-hygiene": (
        "mappers/bad_registry_hygiene.py",
        [
            ("registry-hygiene", 1),
            ("registry-hygiene", 6),
            ("registry-hygiene", 6),
            ("registry-hygiene", 12),
        ],
    ),
    "exception-hygiene": (
        "bad_exception_hygiene.py",
        [("exception-hygiene", 14), ("exception-hygiene", 22)],
    ),
}

CLEAN_FIXTURES = sorted(
    path.relative_to(FIXTURE_DIR).as_posix() for path in FIXTURE_DIR.rglob("clean_*.py")
)


def pairs(violations: list[Violation]) -> list[tuple[str, int]]:
    return [(v.rule, v.line) for v in violations]


class TestGoldenFixtures:
    def test_every_rule_has_a_golden_fixture(self):
        assert sorted(GOLDEN) == sorted(all_rule_ids())

    def test_every_rule_has_a_clean_fixture(self):
        stems = {name.split("/")[-1] for name in CLEAN_FIXTURES}
        for rule_id in all_rule_ids():
            assert f"clean_{rule_id.replace('-', '_')}.py" in stems

    @pytest.mark.parametrize("rule_id", sorted(GOLDEN))
    def test_bad_fixture_flags_exact_rule_and_lines(self, rule_id):
        relpath, expected = GOLDEN[rule_id]
        result = lint_paths([FIXTURE_DIR / relpath])
        assert pairs(result.violations) == expected
        assert result.exit_code == 1
        for violation in result.violations:
            assert violation.severity in ("error", "warning")
            assert violation.message

    @pytest.mark.parametrize("relpath", CLEAN_FIXTURES)
    def test_clean_fixture_is_clean_under_all_rules(self, relpath):
        result = lint_paths([FIXTURE_DIR / relpath])
        assert pairs(result.violations) == []
        assert result.suppressed == []
        assert result.exit_code == 0

    def test_rule_filter_restricts_checks(self):
        path = FIXTURE_DIR / "bad_purity_random.py"
        result = lint_paths([path], rule_ids=["purity-time"])
        assert result.violations == []
        assert lint_paths([path], rule_ids=["purity-random"]).exit_code == 1

    def test_unknown_rule_id_suggests_neighbours(self):
        with pytest.raises(ValueError, match="purity-time"):
            resolve_rules(["purity-tme"])


class TestSuppression:
    def test_lint_ignore_comments_silence_violations(self):
        result = lint_paths([FIXTURE_DIR / "suppressed.py"])
        assert result.violations == []
        assert result.exit_code == 0
        assert pairs(result.suppressed) == [("purity-time", 15), ("purity-random", 16)]

    def test_scoped_ignore_only_covers_listed_rules(self, tmp_path):
        source = FIXTURE_DIR / "bad_purity_time.py"
        patched = source.read_text().replace(
            "time.time()  # line 14: purity-time",
            "time.time()  # repro: lint-ignore[purity-random]",
        )
        target = tmp_path / "bad_purity_time.py"
        target.write_text(patched)
        result = lint_paths([target])
        assert pairs(result.violations) == [("purity-time", 14)]


class TestReporters:
    def test_text_report_names_rule_file_and_line(self):
        result = lint_paths([FIXTURE_DIR / "bad_purity_time.py"])
        text = render_text(result)
        assert "[purity-time]" in text
        assert "bad_purity_time.py:14" in text
        assert "found 1 violation(s):" in text

    def test_json_report_round_trips(self):
        result = lint_paths([FIXTURE_DIR / "bad_schema_drift.py"])
        payload = json.loads(render_json(result))
        assert payload["exit_code"] == 1
        assert [v["rule"] for v in payload["violations"]] == ["schema-drift"] * 3
        assert all(v["path"].endswith("bad_schema_drift.py") for v in payload["violations"])


class TestCli:
    def test_lint_command_exits_nonzero_on_bad_fixture(self, capsys):
        code = main(["lint", str(FIXTURE_DIR / "bad_purity_time.py")])
        assert code == 1
        assert "[purity-time]" in capsys.readouterr().out

    def test_lint_command_exits_zero_on_clean_fixture(self, capsys):
        code = main(["lint", str(FIXTURE_DIR / "clean_purity_time.py")])
        assert code == 0
        assert "lint clean" in capsys.readouterr().out

    def test_lint_json_output(self, capsys):
        code = main(["lint", "--json", str(FIXTURE_DIR / "bad_picklability.py")])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["violations"]) == 3

    def test_list_rules_names_every_rule(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        output = capsys.readouterr().out
        for rule_id in all_rule_ids():
            assert rule_id in output

    def test_baseline_masks_known_violations(self, tmp_path, capsys):
        target = str(FIXTURE_DIR / "bad_purity_io.py")
        baseline = tmp_path / "baseline.json"
        assert main(["lint", target, "--write-baseline", str(baseline)]) == 0
        capsys.readouterr()
        assert main(["lint", target, "--baseline", str(baseline)]) == 0
        assert "lint clean" in capsys.readouterr().out
        assert main(["lint", str(FIXTURE_DIR / "bad_purity_time.py"), "--baseline", str(baseline)]) == 1


class TestBaselineStability:
    def test_baseline_with_windows_paths_still_matches(self, tmp_path, capsys):
        target = str(FIXTURE_DIR / "bad_purity_io.py")
        baseline = tmp_path / "baseline.json"
        assert main(["lint", target, "--write-baseline", str(baseline)]) == 0
        payload = json.loads(baseline.read_text(encoding="utf-8"))
        assert payload["baseline"]
        for entry in payload["baseline"]:
            entry[1] = entry[1].replace("/", "\\")
        baseline.write_text(json.dumps(payload), encoding="utf-8")
        capsys.readouterr()
        assert main(["lint", target, "--baseline", str(baseline)]) == 0
        assert "lint clean" in capsys.readouterr().out

    def test_write_baseline_under_rule_filter_preserves_other_rules(self, tmp_path):
        from repro.tools.lint.reporters import load_baseline, write_baseline

        baseline = tmp_path / "baseline.json"
        io_result = lint_paths(
            [FIXTURE_DIR / "bad_purity_io.py"], rule_ids=["purity-io"]
        )
        write_baseline(baseline, io_result)
        time_result = lint_paths(
            [FIXTURE_DIR / "bad_purity_time.py"], rule_ids=["purity-time"]
        )
        write_baseline(baseline, time_result)
        rules_in_baseline = {entry[0] for entry in load_baseline(baseline)}
        assert {"purity-io", "purity-time"} <= rules_in_baseline

    def test_rewriting_covered_rule_replaces_its_entries(self, tmp_path):
        from repro.tools.lint.reporters import load_baseline, write_baseline

        baseline = tmp_path / "baseline.json"
        io_result = lint_paths(
            [FIXTURE_DIR / "bad_purity_io.py"], rule_ids=["purity-io"]
        )
        write_baseline(baseline, io_result)
        clean = lint_paths(
            [FIXTURE_DIR / "clean_purity_io.py"], rule_ids=["purity-io"]
        )
        write_baseline(baseline, clean)
        assert not {e for e in load_baseline(baseline) if e[0] == "purity-io"}


class TestSeverityFilter:
    def test_severity_filter_restricts_findings(self):
        target = FIXTURE_DIR / "bad_param_spec_coverage.py"
        warnings_only = lint_paths([target], severities=["warning"])
        assert warnings_only.violations
        assert all(v.severity == "warning" for v in warnings_only.violations)
        errors_only = lint_paths([target], severities=["error"])
        assert errors_only.violations == []

    def test_unknown_severity_is_rejected(self):
        with pytest.raises(ValueError, match="severity"):
            lint_paths([FIXTURE_DIR / "bad_purity_io.py"], severities=["fatal"])

    def test_cli_severity_flag(self, capsys):
        target = str(FIXTURE_DIR / "bad_param_spec_coverage.py")
        assert main(["lint", target]) == 1
        capsys.readouterr()
        assert main(["lint", target, "--severity", "error"]) == 0

    def test_text_report_has_severity_footer(self):
        result = lint_paths([FIXTURE_DIR / "bad_param_spec_coverage.py"])
        assert "0 error(s) / 2 warning(s)" in render_text(result)
