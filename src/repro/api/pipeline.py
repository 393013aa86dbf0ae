"""The fluent, lazy, mode-agnostic pipeline builder — the package's front door.

A :class:`Pipeline` is a *logical* plan: an input source, an ordered chain of
operator steps, and run options.  Building one executes nothing — every
builder method validates eagerly (operator names against the registry with
"did you mean" suggestions, parameters against the typed op schemas, step
categories against the operator's actual category) and returns a **new**
pipeline, so intermediate pipelines can be shared and extended freely::

    from repro.api import Pipeline

    report = (
        Pipeline.read("data/*.jsonl.gz")
        .apply("clean_html_mapper")
        .filter("text_length_filter", min_len=50)
        .dedup("document_minhash_deduplicator", jaccard_threshold=0.8)
        .export("out.jsonl", mode="auto")
    )

Execution is deferred to the terminal methods (:meth:`Pipeline.run`,
:meth:`Pipeline.export`, :meth:`Pipeline.collect`), which compile the
pipeline into a :class:`~repro.core.config.RecipeConfig`, let the
:mod:`repro.core.planner` pick the physical mode (in-memory batched/pooled vs
out-of-core streaming) and hand the plan to a context-managed
:class:`~repro.core.executor.Executor` — the Executor is the backend, never
the front door.

Pipelines and recipes are lossless inverses: :meth:`Pipeline.from_recipe`
accepts any recipe (dict, file, built-in name, ``RecipeConfig``) and
:meth:`Pipeline.to_recipe` emits one back whose operator chain carries the
*identical* incremental fingerprint chain — the tested round-trip contract.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Sequence

from repro.core.base_op import Deduplicator, Filter, Mapper, Selector, op_category
from repro.core.config import KNOWN_RECIPE_KEYS, RecipeConfig, load_config
from repro.core.dataset import NestedDataset, _stable_hash
from repro.core.errors import ConfigError, SchemaError
from repro.core.executor import Executor
from repro.core.planner import ExecutionPlan, ResourceBudget, plan_execution
from repro.core.registry import OPERATORS, unknown_keys_message
from repro.core.report import RunReport
from repro.core.schema import schema_for

#: categories a step may declare; ``None`` (via ``apply``) accepts any op
_CATEGORY_BASES = {
    "mapper": Mapper,
    "filter": Filter,
    "deduplicator": Deduplicator,
    "selector": Selector,
}


class Pipeline:
    """A lazy, immutable chain of operator steps over one input source.

    Do not call the constructor directly — start from :meth:`read` (a path
    input), :meth:`from_recipe` (any existing recipe) or :meth:`new` (no
    source yet, e.g. for in-memory datasets passed at run time).
    """

    __slots__ = ("_settings", "_steps")

    def __init__(
        self,
        settings: dict[str, Any] | None = None,
        steps: Sequence[tuple[str, dict]] = (),
    ):
        self._settings: dict[str, Any] = dict(settings or {})
        self._steps: tuple[tuple[str, dict], ...] = tuple(
            (name, dict(params)) for name, params in steps
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def new(cls, **options: Any) -> "Pipeline":
        """An empty pipeline with no input source (supply one at run time)."""
        return cls().options(**options)

    @classmethod
    def read(cls, dataset_path: str | Path, **options: Any) -> "Pipeline":
        """A pipeline reading from a file, directory or glob pattern.

        Every input the formatter layer understands works: single files
        (``data.jsonl``, ``data.csv``, …), directories of shards, glob
        patterns, and transparently gzip-compressed variants
        (``data/*.jsonl.gz``).
        """
        return cls({"dataset_path": str(dataset_path)}).options(**options)

    @classmethod
    def from_recipe(
        cls, recipe: str | Path | dict | RecipeConfig
    ) -> "Pipeline":
        """Build a pipeline from any recipe form — the lossless inverse of
        :meth:`to_recipe`.

        ``recipe`` may be a built-in recipe name, a YAML/JSON recipe file
        path, a recipe mapping, or a :class:`RecipeConfig`.  The recipe's
        ``process`` list becomes the step chain (validated against the typed
        op schemas) and every other key becomes a pipeline setting.
        """
        if isinstance(recipe, str):
            from repro.recipes import BUILT_IN_RECIPES, get_recipe

            path = Path(recipe)
            if recipe in BUILT_IN_RECIPES:
                recipe = get_recipe(recipe)
            elif not path.exists() and path.suffix not in (".yaml", ".yml", ".json"):
                # not a recipe file: treat as a (misspelled) built-in name so
                # the error carries "did you mean" suggestions
                recipe = get_recipe(recipe)
        if isinstance(recipe, RecipeConfig):
            payload = recipe.as_dict()
        elif isinstance(recipe, dict):
            payload = dict(recipe)
        else:
            payload = load_config(recipe).as_dict()
        process = payload.pop("process", [])
        pipeline = cls().options(**payload)
        from repro.ops import split_process_entry

        for entry in process:
            name, params = split_process_entry(entry)
            pipeline = pipeline.apply(name, **params)
        return pipeline

    # ------------------------------------------------------------------
    # Fluent builders (each returns a NEW pipeline)
    # ------------------------------------------------------------------
    def _with_step(self, category: str | None, name: str, params: dict) -> "Pipeline":
        """Append one validated step; the category gate and schema run here."""
        op_cls = OPERATORS.get(name)  # unknown names raise with suggestions
        actual = op_category(op_cls)
        if category is not None and actual != category:
            raise ConfigError(
                f"{name!r} is a {actual}, not a {category}; use "
                f".{_BUILDER_FOR_CATEGORY.get(actual, 'apply')}(...) "
                "(or the category-agnostic .apply(...))"
            )
        issues = schema_for(op_cls, name=name).validate(params)
        if issues:
            raise SchemaError(
                f"invalid parameters for operator {name!r}:\n  "
                + "\n  ".join(str(issue) for issue in issues),
                issues=issues,
            )
        return Pipeline(self._settings, self._steps + ((name, dict(params)),))

    def apply(self, name: str, **params: Any) -> "Pipeline":
        """Append any operator by registered name (category-agnostic)."""
        return self._with_step(None, name, params)

    def map(self, name: str, **params: Any) -> "Pipeline":
        """Append a Mapper step (raises when ``name`` is not a mapper)."""
        return self._with_step("mapper", name, params)

    def filter(self, name: str, **params: Any) -> "Pipeline":
        """Append a Filter step (raises when ``name`` is not a filter)."""
        return self._with_step("filter", name, params)

    def dedup(self, name: str, **params: Any) -> "Pipeline":
        """Append a Deduplicator step (raises when ``name`` is not one)."""
        return self._with_step("deduplicator", name, params)

    def select(self, name: str, **params: Any) -> "Pipeline":
        """Append a Selector step (raises when ``name`` is not a selector)."""
        return self._with_step("selector", name, params)

    def options(self, **settings: Any) -> "Pipeline":
        """Set recipe-level run options (``np``, ``batch_size``, ``use_cache``,
        ``op_fusion``, ``work_dir``, ``memory_budget``, …).

        Accepts exactly the keys a recipe mapping accepts; unknown keys raise
        :class:`ConfigError` with close-match suggestions.
        """
        unknown = set(settings) - KNOWN_RECIPE_KEYS
        if unknown:
            raise ConfigError(
                unknown_keys_message("pipeline options", unknown, KNOWN_RECIPE_KEYS)
            )
        if "process" in settings:
            raise ConfigError(
                "the operator chain is built with .apply()/.filter()/... , "
                "not via options(process=...)"
            )
        merged = dict(self._settings)
        merged.update(settings)
        return Pipeline(merged, self._steps)

    def on_error(
        self,
        policy: str,
        *,
        max_retries: int | None = None,
        backoff_s: float | None = None,
        task_timeout_s: float | None = None,
        max_pool_rebuilds: int | None = None,
    ) -> "Pipeline":
        """Set the fault-tolerance policy of the run (see ``docs/robustness.md``).

        ``policy`` is ``"raise"`` (abort on the first persistent failure —
        the default), ``"skip"`` (drop failing rows/shards and continue) or
        ``"quarantine"`` (drop them *and* write each to
        ``<work_dir>/quarantine/quarantine-*.jsonl.gz`` with the op name,
        exception and shard/row location for replay).  The keyword knobs
        mirror the recipe keys of the same names: retries with capped
        exponential backoff per failing unit, the worker-pool dispatch
        timeout that enables dead/hung-worker supervision, and the number of
        pool rebuilds tolerated before degrading to serial execution::

            Pipeline.read("data/*.jsonl").apply("clean_html_mapper") \\
                .on_error("quarantine", max_retries=2, task_timeout_s=60) \\
                .export("out.jsonl")
        """
        settings: dict[str, Any] = {"on_error": policy}
        if max_retries is not None:
            settings["max_retries"] = max_retries
        if backoff_s is not None:
            settings["backoff_s"] = backoff_s
        if task_timeout_s is not None:
            settings["task_timeout_s"] = task_timeout_s
        if max_pool_rebuilds is not None:
            settings["max_pool_rebuilds"] = max_pool_rebuilds
        return self.options(**settings)

    # ------------------------------------------------------------------
    # Introspection / recipe round-tripping
    # ------------------------------------------------------------------
    @property
    def steps(self) -> tuple[tuple[str, dict], ...]:
        """The ``(op_name, params)`` chain, in execution order."""
        return tuple((name, dict(params)) for name, params in self._steps)

    def __len__(self) -> int:
        return len(self._steps)

    def __repr__(self) -> str:
        chain = " -> ".join(name for name, _params in self._steps) or "(empty)"
        return f"Pipeline({len(self._steps)} steps: {chain})"

    def describe(self) -> str:
        """Multi-line rendering of the logical plan (steps + options)."""
        lines = [f"Pipeline ({len(self._steps)} steps)"]
        source = self._settings.get("dataset_path")
        if source:
            lines.append(f"  read {source}")
        for index, (name, params) in enumerate(self._steps, start=1):
            rendered = ", ".join(f"{key}={value!r}" for key, value in params.items())
            lines.append(f"  {index}. {name}({rendered})")
        export = self._settings.get("export_path")
        if export:
            lines.append(f"  export {export}")
        extra = {
            key: value
            for key, value in sorted(self._settings.items())
            if key not in ("dataset_path", "export_path") and value not in (None, False)
        }
        if extra:
            lines.append(
                "  options: " + ", ".join(f"{key}={value!r}" for key, value in extra.items())
            )
        return "\n".join(lines)

    def to_recipe(self) -> dict:
        """The recipe mapping this pipeline compiles to — the lossless inverse
        of :meth:`from_recipe` (identical op fingerprint chains guaranteed)."""
        recipe = dict(self._settings)
        recipe["process"] = [{name: dict(params)} for name, params in self._steps]
        return recipe

    def to_config(self) -> RecipeConfig:
        """The validated :class:`RecipeConfig` this pipeline compiles to."""
        return load_config(self.to_recipe())

    def build_ops(self) -> list:
        """Instantiate the raw (unfused) operator chain of this pipeline."""
        from repro.ops import load_ops

        return load_ops([{name: dict(params)} for name, params in self._steps])

    def op_fingerprint_chain(self, seed: str = "") -> list[str]:
        """Incremental fingerprint of each step, seeded by ``seed``.

        The exact recurrence the execution engines stamp on their outputs —
        ``hash(parent_fp, op.name, op.config())`` (see
        :meth:`repro.core.dataset.NestedDataset.derive_fingerprint`) — so two
        pipelines with equal chains are guaranteed to hit the same caches and
        produce the same rows.  This is the tested identity behind the
        recipe round-trip contract.
        """
        chain: list[str] = []
        fingerprint = seed
        for op in self.build_ops():
            fingerprint = _stable_hash(
                {"parent": fingerprint, "op": op.name, "params": op.config()}
            )
            chain.append(fingerprint)
        return chain

    # ------------------------------------------------------------------
    # Execution (terminal methods)
    # ------------------------------------------------------------------
    def plan(
        self,
        mode: str = "auto",
        dataset: NestedDataset | None = None,
        budget: ResourceBudget | None = None,
    ) -> ExecutionPlan:
        """Preview the mode decision without executing anything.

        The returned plan carries the pre-flight dataflow findings
        (``plan.dataflow``, see :mod:`repro.tools.dataflow`) so a field-broken
        pipeline is visible before :meth:`run` touches any data.
        """
        from repro.tools.dataflow import check_recipe

        cfg = self.to_config()
        plan = plan_execution(cfg, dataset=dataset, mode=mode, budget=budget)
        flow = check_recipe(cfg)
        plan.dataflow = [finding.as_dict() for finding in flow.findings]
        return plan

    def run(
        self,
        dataset: NestedDataset | None = None,
        mode: str = "auto",
        shard_output: bool = False,
        budget: ResourceBudget | None = None,
    ) -> RunReport:
        """Execute the pipeline and return the unified :class:`RunReport`.

        The planner picks in-memory vs streaming execution (``mode="auto"``,
        overridable); the backing :class:`Executor` is context-managed, so
        worker pools never outlive the call even when a stage raises.
        """
        with Executor(self.to_config()) as executor:
            return executor.execute(
                dataset=dataset, mode=mode, shard_output=shard_output, budget=budget
            )

    def export(
        self,
        export_path: str | Path,
        dataset: NestedDataset | None = None,
        mode: str = "auto",
        shard_output: bool = False,
        budget: ResourceBudget | None = None,
    ) -> RunReport:
        """Execute and export to ``export_path``; returns the run report.

        Equivalent to ``.options(export_path=...).run(...)`` — the exported
        rows do not depend on the physical mode the planner picks.
        """
        return self.options(export_path=str(export_path)).run(
            dataset=dataset, mode=mode, shard_output=shard_output, budget=budget
        )

    def collect(self, dataset: NestedDataset | None = None) -> NestedDataset:
        """Execute in-memory and return the processed :class:`NestedDataset`.

        ``collect`` always uses the in-memory engine (a materialised result
        is the point); use :meth:`run` / :meth:`export` for planner-driven
        mode selection over large corpora.
        """
        with Executor(self.to_config()) as executor:
            return executor.run(dataset)


#: builder-method name per category (for the category-mismatch error message)
_BUILDER_FOR_CATEGORY = {
    "mapper": "map",
    "filter": "filter",
    "deduplicator": "dedup",
    "selector": "select",
}


__all__ = ["Pipeline"]
