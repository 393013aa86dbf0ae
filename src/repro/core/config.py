"""End-to-end configurable data recipes (Sec. 5.1 of the paper).

A *data recipe* is the full configuration of a processing run: where the data
comes from, which operators run with which hyper-parameters, where results and
traces go, and which optimizations (cache, checkpoints, OP fusion) are active.
Recipes can be defined as plain dictionaries, YAML files or JSON files, and are
validated against the operator registry before execution.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.core.errors import ConfigError
from repro.core.registry import OPERATORS

try:  # PyYAML is optional; JSON/dict recipes always work.
    import yaml
except ImportError:  # pragma: no cover - exercised only without PyYAML
    yaml = None


@dataclass
class RecipeConfig:
    """Validated configuration of one data-processing run."""

    project_name: str = "repro-project"
    dataset_path: str | None = None
    export_path: str | None = None
    text_keys: list[str] = field(default_factory=lambda: ["text"])
    #: number of worker processes; ``np > 1`` routes Mapper/Filter stages
    #: through the persistent :class:`repro.parallel.WorkerPool`
    np: int = 1
    #: rows per batch of the batched columnar op path; ``None`` keeps each
    #: op's own setting (execution tuning only — results are identical)
    batch_size: int | None = None
    #: run the pipeline shard-by-shard with bounded memory (``Executor.
    #: run_streaming`` / CLI ``--stream``); results match the in-memory path
    stream: bool = False
    #: shard budget of the streaming run mode: a shard closes when it reaches
    #: ``max_shard_rows`` rows or ``max_shard_chars`` text characters,
    #: whichever comes first (``None`` = unset; when both are unset the
    #: streaming engine applies its default row budget)
    max_shard_rows: int | None = None
    max_shard_chars: int | None = None
    #: memory budget in bytes for the ``mode="auto"`` execution planner
    #: (:mod:`repro.core.planner`); ``None`` detects from the host's free
    #: memory at plan time
    memory_budget: int | None = None
    process: list = field(default_factory=list)

    # optimizations & tooling
    use_cache: bool = False
    cache_dir: str | None = None
    cache_compression: str = "none"
    use_checkpoint: bool = False
    checkpoint_dir: str | None = None
    op_fusion: bool = False
    open_tracer: bool = False
    trace_num: int = 10
    work_dir: str = "./outputs"
    keep_stats_in_export: bool = False
    seed: int = 42

    # static dataflow verification (see repro.tools.dataflow and docs/dataflow.md)
    #: fail ``Executor.execute`` on any dataflow finding instead of warning
    strict_dataflow: bool = False
    #: user fields the input data is declared to carry (``meta.lang`` style
    #: dotted paths); declaring any opts user-field reads into closed-world
    #: checking — undefined reads then become errors with suggestions
    input_fields: list[str] | None = None
    #: dataflow findings to suppress: ``rule`` or ``rule@step`` entries
    #: (1-based step index), e.g. ``["dead-write", "order-hazard@3"]``
    dataflow_ignore: list[str] = field(default_factory=list)

    # fault tolerance (see repro.core.faults and docs/robustness.md)
    #: what to do when an operator fails persistently: ``raise`` aborts,
    #: ``skip`` drops the failing rows/shards, ``quarantine`` drops them and
    #: writes them to ``<work_dir>/quarantine/quarantine-*.jsonl.gz``
    on_error: str = "raise"
    #: retries per failing unit (op call, row, shard) before the verdict
    max_retries: int = 0
    #: base of the capped exponential backoff between retries (seconds)
    backoff_s: float = 0.05
    #: per-dispatch worker-pool timeout in seconds; ``None`` disables
    #: supervision (dead/hung workers are then never detected)
    task_timeout_s: float | None = None
    #: worker-pool reconstructions before degrading to serial execution
    max_pool_rebuilds: int = 2

    def op_names(self) -> list[str]:
        """Names of the operators in the process list, in order."""
        names = []
        for entry in self.process:
            if isinstance(entry, str):
                names.append(entry)
            elif isinstance(entry, dict) and len(entry) == 1:
                names.append(next(iter(entry)))
            else:
                raise ConfigError(f"invalid process entry: {entry!r}")
        return names

    def as_dict(self) -> dict:
        """Plain-dict view of the recipe (for saving refined recipes)."""
        return {
            "project_name": self.project_name,
            "dataset_path": self.dataset_path,
            "export_path": self.export_path,
            "text_keys": list(self.text_keys),
            "np": self.np,
            "batch_size": self.batch_size,
            "stream": self.stream,
            "max_shard_rows": self.max_shard_rows,
            "max_shard_chars": self.max_shard_chars,
            "memory_budget": self.memory_budget,
            "process": list(self.process),
            "use_cache": self.use_cache,
            "cache_dir": self.cache_dir,
            "cache_compression": self.cache_compression,
            "use_checkpoint": self.use_checkpoint,
            "checkpoint_dir": self.checkpoint_dir,
            "op_fusion": self.op_fusion,
            "open_tracer": self.open_tracer,
            "trace_num": self.trace_num,
            "work_dir": self.work_dir,
            "keep_stats_in_export": self.keep_stats_in_export,
            "seed": self.seed,
            "strict_dataflow": self.strict_dataflow,
            "input_fields": list(self.input_fields) if self.input_fields is not None else None,
            "dataflow_ignore": list(self.dataflow_ignore),
            "on_error": self.on_error,
            "max_retries": self.max_retries,
            "backoff_s": self.backoff_s,
            "task_timeout_s": self.task_timeout_s,
            "max_pool_rebuilds": self.max_pool_rebuilds,
        }


#: every key a recipe mapping may carry (the public contract of
#: :func:`load_config` and of :meth:`repro.api.Pipeline.options`)
KNOWN_RECIPE_KEYS = frozenset(RecipeConfig().as_dict().keys())
_KNOWN_KEYS = KNOWN_RECIPE_KEYS


def validate_config(config: RecipeConfig) -> RecipeConfig:
    """Check that all operators exist and their parameters look sane."""
    for entry in config.process:
        if isinstance(entry, str):
            name, params = entry, {}
        elif isinstance(entry, dict) and len(entry) == 1:
            name, params = next(iter(entry.items()))
            params = params or {}
        else:
            raise ConfigError(f"invalid process entry: {entry!r}")
        if name not in OPERATORS:
            raise ConfigError(f"unknown operator {name!r} in recipe {config.project_name!r}")
        if not isinstance(params, dict):
            raise ConfigError(f"parameters of operator {name!r} must be a mapping")
    if not isinstance(config.np, int) or isinstance(config.np, bool) or config.np < 1:
        raise ConfigError("np (number of worker processes) must be an integer >= 1")
    if config.batch_size is not None and (
        not isinstance(config.batch_size, int)
        or isinstance(config.batch_size, bool)
        or config.batch_size < 1
    ):
        raise ConfigError("batch_size must be an integer >= 1 (or null)")
    for knob in ("max_shard_rows", "max_shard_chars", "memory_budget"):
        value = getattr(config, knob)
        if value is not None and (
            not isinstance(value, int) or isinstance(value, bool) or value < 1
        ):
            raise ConfigError(f"{knob} must be an integer >= 1 (or null)")
    if not isinstance(config.stream, bool):
        raise ConfigError("stream must be a boolean")
    from repro.core.faults import ERROR_POLICIES

    if config.on_error not in ERROR_POLICIES:
        raise ConfigError(
            f"on_error must be one of {sorted(ERROR_POLICIES)}, got {config.on_error!r}"
        )
    for knob in ("max_retries", "max_pool_rebuilds", "trace_num"):
        value = getattr(config, knob)
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise ConfigError(f"{knob} must be an integer >= 0")
    if (
        not isinstance(config.backoff_s, (int, float))
        or isinstance(config.backoff_s, bool)
        or config.backoff_s < 0
    ):
        raise ConfigError("backoff_s must be a number >= 0")
    if config.task_timeout_s is not None and (
        not isinstance(config.task_timeout_s, (int, float))
        or isinstance(config.task_timeout_s, bool)
        or config.task_timeout_s <= 0
    ):
        raise ConfigError("task_timeout_s must be a number > 0 (or null)")
    if not isinstance(config.strict_dataflow, bool):
        raise ConfigError("strict_dataflow must be a boolean")
    if config.input_fields is not None and (
        not isinstance(config.input_fields, list)
        or any(not isinstance(name, str) or not name for name in config.input_fields)
    ):
        raise ConfigError("input_fields must be a list of dotted field paths (or null)")
    if not isinstance(config.dataflow_ignore, list) or any(
        not isinstance(entry, str) for entry in config.dataflow_ignore
    ):
        raise ConfigError("dataflow_ignore must be a list of 'rule' or 'rule@step' strings")
    if config.dataflow_ignore:
        from repro.core.registry import unknown_name_message
        from repro.tools.dataflow.checker import DATAFLOW_RULES

        for entry in config.dataflow_ignore:
            rule, _, step = entry.partition("@")
            if rule not in DATAFLOW_RULES:
                raise ConfigError(
                    "dataflow_ignore: "
                    + unknown_name_message("dataflow rule", rule, DATAFLOW_RULES)
                )
            if step and not step.isdigit():
                raise ConfigError(
                    f"dataflow_ignore entry {entry!r}: the '@' suffix must be a "
                    f"1-based step index"
                )
    return config


def load_recipe_payload(source: str | Path | dict | RecipeConfig) -> dict:
    """Read a recipe into a plain mapping without validating anything yet.

    The single parser behind :func:`load_config` and schema-only validation
    (``repro validate-recipe``): dicts and :class:`RecipeConfig` pass through,
    paths dispatch on suffix (YAML needs PyYAML, JSON always works).
    """
    if isinstance(source, RecipeConfig):
        return source.as_dict()
    if isinstance(source, dict):
        payload: Any = dict(source)
    else:
        path = Path(source)
        if not path.exists():
            raise ConfigError(f"recipe file not found: {path}")
        text = path.read_text(encoding="utf-8")
        if path.suffix in (".yaml", ".yml"):
            if yaml is None:
                raise ConfigError("PyYAML is required to load YAML recipes")
            payload = yaml.safe_load(text) or {}
        elif path.suffix == ".json":
            payload = json.loads(text)
        else:
            raise ConfigError(f"unsupported recipe format {path.suffix!r}")
    if not isinstance(payload, dict):
        raise ConfigError("a recipe must be a mapping of configuration keys")
    return payload


def load_config(source: str | Path | dict | RecipeConfig) -> RecipeConfig:
    """Build and validate a :class:`RecipeConfig` from a dict, YAML or JSON file."""
    if isinstance(source, RecipeConfig):
        return validate_config(source)
    payload = load_recipe_payload(source)
    unknown = set(payload) - _KNOWN_KEYS
    if unknown:
        from repro.core.registry import unknown_keys_message

        raise ConfigError(unknown_keys_message("recipe keys", unknown, _KNOWN_KEYS))
    config = RecipeConfig(**payload)
    return validate_config(config)


def save_config(config: RecipeConfig, path: str | Path) -> Path:
    """Write a recipe to YAML (or JSON when PyYAML is unavailable / .json suffix)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload: dict[str, Any] = config.as_dict()
    if path.suffix == ".json" or yaml is None:
        path.write_text(json.dumps(payload, indent=2, ensure_ascii=False), encoding="utf-8")
    else:
        path.write_text(yaml.safe_dump(payload, sort_keys=False, allow_unicode=True), encoding="utf-8")
    return path
