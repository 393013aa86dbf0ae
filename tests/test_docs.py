"""Tests for the generated docs subsystem and API documentation hygiene.

Two contracts are enforced here:

* the committed ``docs/ops_catalog.md`` must match a fresh render of the
  operator registry (``make docs`` regenerates it) — documentation rot fails
  the build;
* every registered operator class, and the public core API surface, carries a
  non-empty docstring.
"""

import inspect
from pathlib import Path

import pytest

from repro.core.registry import OPERATORS
from repro.tools.docgen import (
    catalog_in_sync,
    op_catalog_entries,
    op_doc_summary,
    op_parameters,
    render_ops_catalog,
    write_ops_catalog,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS_DIR = REPO_ROOT / "docs"


class TestOpsCatalog:
    def test_committed_catalog_in_sync_with_registry(self):
        """`make docs` must be a no-op: a stale catalog fails the build."""
        catalog_path = DOCS_DIR / "ops_catalog.md"
        assert catalog_path.exists(), "docs/ops_catalog.md missing; run `make docs`"
        assert catalog_in_sync(catalog_path), (
            "docs/ops_catalog.md is out of sync with the operator registry; "
            "regenerate it with `make docs`"
        )

    def test_every_registered_op_in_catalog(self):
        rendered = render_ops_catalog()
        for name in OPERATORS.list():
            assert f"### `{name}`" in rendered

    def test_entries_carry_category_and_summary(self):
        entries = op_catalog_entries()
        assert len(entries) == len(OPERATORS)
        for entry in entries:
            assert entry["category"] in ("mapper", "filter", "deduplicator", "selector")
            assert entry["summary"], f"{entry['name']} has no docstring summary"

    def test_op_parameters_skip_common_kwargs(self):
        names = [spec.name for spec in op_parameters(OPERATORS.get("text_length_filter"))]
        assert "min_len" in names and "max_len" in names
        assert "text_key" not in names and "batch_size" not in names

    def test_parameter_tables_are_typed(self):
        """The catalog renders each parameter's type, bounds and doc from its schema."""
        rendered = render_ops_catalog()
        assert "| parameter | type | default | constraints | description |" in rendered
        # a declared bound and doc from TextLengthFilter.PARAM_SPECS shows up
        assert "| `min_len` | `int` | `10` | `>= 0` | minimum text length in characters |" in rendered
        # choices render for schema-declared enumerations
        assert "one of " in rendered

    def test_entries_say_how_the_batched_engine_executes_them(self):
        """An op that falls off the batched path shows up as a catalog diff."""
        execution = {entry["name"]: entry["execution"] for entry in op_catalog_entries()}
        for name in (
            "character_repetition_filter",
            "word_repetition_filter",
            "lowercase_mapper",
            "document_deduplicator",
            "document_minhash_deduplicator",
            "document_simhash_deduplicator",
        ):
            assert execution[name] == "batched kernel", name
        assert execution["clean_html_mapper"] == "per-row default"
        assert execution["perplexity_filter"] == "per-row default"
        assert execution["topk_specified_field_selector"] is None  # dataset-level
        rendered = render_ops_catalog()
        sample_level = [name for name, how in execution.items() if how is not None]
        assert rendered.count("*Execution:* `") == len(sample_level)

    def test_render_is_deterministic(self):
        assert render_ops_catalog() == render_ops_catalog()

    def test_write_reports_change_state(self, tmp_path):
        path = tmp_path / "catalog.md"
        assert write_ops_catalog(path) is True
        assert write_ops_catalog(path) is False  # already up to date
        assert catalog_in_sync(path)

    def test_docs_ops_cli(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "catalog.md"
        assert main(["docs-ops", "--output", str(path)]) == 0
        assert path.exists()
        assert main(["docs-ops", "--output", str(path), "--check"]) == 0
        path.write_text("stale", encoding="utf-8")
        assert main(["docs-ops", "--output", str(path), "--check"]) == 1
        assert "OUT OF SYNC" in capsys.readouterr().out


class TestDocsTree:
    @pytest.mark.parametrize(
        "name",
        [
            "architecture.md",
            "dataflow.md",
            "linting.md",
            "observability.md",
            "ops_catalog.md",
            "robustness.md",
        ],
    )
    def test_docs_files_exist_and_are_substantial(self, name):
        path = DOCS_DIR / name
        assert path.exists(), f"docs/{name} missing"
        assert len(path.read_text(encoding="utf-8")) > 500

    def test_readme_links_docs_and_caveat_removed(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        assert "docs/architecture.md" in readme
        assert "docs/observability.md" in readme
        assert "docs/ops_catalog.md" in readme
        assert "docs/robustness.md" in readme
        assert "docs/dataflow.md" in readme
        # PR 3's caveat — streaming bypassing cache and tracer — is gone
        assert "bypassed in streaming mode" not in readme


class TestDocstringCoverage:
    def test_every_registered_op_has_docstring(self):
        missing = [
            name
            for name in OPERATORS.list()
            if not (OPERATORS.get(name).__doc__ or "").strip()
        ]
        assert not missing, f"operators without docstrings: {missing}"

    def test_public_core_api_documented(self):
        """Every public class and method of the core surface has a docstring."""
        from repro.analysis import analyzer
        from repro.api import pipeline as api_pipeline
        from repro.api import validate as api_validate
        from repro.core import (
            base_op,
            cache,
            checkpoint,
            dataset,
            executor,
            exporter,
            monitor,
            planner,
            report,
            schema,
            stream,
            tracer,
        )
        from repro.formats import (
            csv_formatter,
            jsonl_formatter,
            load,
            mixture_formatter,
            sharded,
            text_formatter,
        )

        modules = (
            analyzer, api_pipeline, api_validate, base_op, cache, checkpoint,
            dataset, executor, exporter, monitor, planner, report, schema,
            stream, tracer, csv_formatter, jsonl_formatter, load,
            mixture_formatter, sharded, text_formatter,
        )
        undocumented = []
        for module in modules:
            assert (module.__doc__ or "").strip(), f"{module.__name__} has no module docstring"
            for name, obj in vars(module).items():
                if not inspect.isclass(obj) or obj.__module__ != module.__name__:
                    continue
                if not (obj.__doc__ or "").strip():
                    undocumented.append(f"{module.__name__}.{name}")
                for method_name, method in vars(obj).items():
                    if method_name.startswith("_") or not callable(method):
                        continue
                    if isinstance(method, (staticmethod, classmethod)):
                        method = method.__func__
                    if not (getattr(method, "__doc__", "") or "").strip():
                        undocumented.append(f"{module.__name__}.{name}.{method_name}")
        assert not undocumented, f"undocumented public API: {undocumented}"
