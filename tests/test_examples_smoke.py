"""Smoke tests ensuring every example script runs end to end (scaled down via imports).

The examples are the user-facing entry points of the repository; these tests
import each example module and call its ``main()`` so a broken public API
surfaces immediately.  Output sizes inside the examples are small enough that
the whole module finishes in seconds.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"

FAST_EXAMPLES = [
    "quickstart",
    "quality_classifier_demo",
]


def _load_example(name: str):
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class TestExamples:
    def test_examples_directory_has_at_least_three_scripts(self):
        scripts = list(EXAMPLES_DIR.glob("*.py"))
        assert len(scripts) >= 3

    @pytest.mark.parametrize("name", FAST_EXAMPLES)
    def test_example_main_runs(self, name, capsys):
        module = _load_example(name)
        module.main()
        output = capsys.readouterr().out
        assert output.strip(), f"example {name} produced no output"

    def test_every_example_defines_main(self):
        for path in EXAMPLES_DIR.glob("*.py"):
            source = path.read_text(encoding="utf-8")
            assert "def main(" in source, f"{path.name} has no main()"
            assert '__name__ == "__main__"' in source, f"{path.name} has no CLI guard"
