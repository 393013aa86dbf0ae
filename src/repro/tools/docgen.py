"""Generated documentation: the operator catalog, straight from the op schemas.

``python -m repro docs-ops`` (or ``make docs``) walks
:data:`repro.core.registry.OPERATORS` and renders ``docs/ops_catalog.md``:
every registered operator with its category, one-line description and a
**typed parameter table** read from its :class:`repro.core.schema.OpSchema`
— accepted types, default, declared bounds/choices and the per-parameter doc.
The committed catalog is asserted in sync with the registry by
``tests/test_docs.py``, so documentation rot (or an op schema drifting from
its constructor) fails the build instead of shipping.

Rendering is deterministic (sorted by category, then name; ``repr`` defaults)
— regenerating from an unchanged registry is always a no-op diff.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

import repro.ops  # noqa: F401  (populates the registry as an import side effect)
from repro.core.base_op import Deduplicator, Filter, Mapper
from repro.core.registry import OPERATORS
from repro.core.schema import ParamSpec, schema_for

#: display order of the operator categories in the catalog
CATEGORY_ORDER = ("mapper", "filter", "deduplicator", "selector", "op")

CATALOG_HEADER = """\
# Operator catalog

> **Generated file — do not edit.**  Regenerate with `make docs`
> (`python -m repro docs-ops`).  `tests/test_docs.py` fails when this file
> is out of sync with the operator registry.

Every operator registered in `repro.core.registry.OPERATORS`, grouped by
category.  The parameter tables come from each operator's typed schema
(`repro.core.schema`): accepted types, default, declared constraints
(bounds / choices) and the per-parameter description.  `text_key` (default
`"text"`) and `batch_size` (execution tuning) are accepted by every operator
and omitted from the tables.

Each entry also carries its statically-inferred **effect signature**
(`repro.tools.dataflow`): the fields the op reads / writes / removes
(`<param>` marks a path taken from a constructor parameter, e.g.
`<text_key>`), the shared context keys it produces or consumes, and its
effect on the row set.  The `repro dataflow` checker verifies whole recipes
against these signatures; see `docs/dataflow.md`.

Mappers, filters and deduplicators also say how the batched engine executes
them: **batched kernel** when the class overrides `process_batched` /
`compute_stats_batched` / `compute_hash_batched`, **per-row default** when a
batch is mapped row by row through the per-sample method.
"""

#: the column-batch entry points an op overrides to leave the per-row default
_BATCHED_ENTRY_POINTS = ("process_batched", "compute_stats_batched", "compute_hash_batched")


def op_doc_summary(cls: type) -> str:
    """First line of an operator class's docstring (empty when undocumented).

    Delegates to the op schema so the catalog and every schema consumer
    agree on what an operator's summary is.
    """
    return schema_for(cls).summary


def op_parameters(cls: type) -> list[ParamSpec]:
    """The operator's own typed parameter specs, in constructor order.

    Parameters every op shares (``text_key``, ``batch_size``) and catch-all
    ``**kwargs`` are omitted — this is exactly the schema's ``params`` tuple.
    """
    return list(schema_for(cls).params)


def _cell(text: str) -> str:
    """Escape a markdown table cell: a literal ``|`` would split the row."""
    return text.replace("|", "\\|")


def _constraint_label(spec: ParamSpec) -> str:
    """The constraints cell of a parameter row (bounds / choices, or ``—``)."""
    if spec.choices is not None:
        return "one of " + ", ".join(f"`{choice!r}`" for choice in spec.choices)
    if spec.min_value is not None and spec.max_value is not None:
        return f"`[{spec.min_value}, {spec.max_value}]`"
    if spec.min_value is not None:
        return f"`>= {spec.min_value}`"
    if spec.max_value is not None:
        return f"`<= {spec.max_value}`"
    return "—"


def _effects_label(signature) -> str:
    """One-line rendering of an op's effect signature (empty when unknown)."""
    if signature is None:
        return ""
    parts = []
    if signature.reads:
        parts.append("reads " + ", ".join(f"`{path}`" for path in signature.reads))
    if signature.writes:
        parts.append("writes " + ", ".join(f"`{path}`" for path in signature.writes))
    if signature.removes:
        parts.append("removes " + ", ".join(f"`{path}`" for path in signature.removes))
    context = sorted(set(signature.context_reads) | set(signature.context_writes))
    if context:
        parts.append("context " + ", ".join(f"`{key}`" for key in context))
    parts.append(signature.row_effect)
    return "*Dataflow:* " + "; ".join(parts) + "."


def op_execution(cls: type) -> str | None:
    """How ``op.run`` executes a sample-level op's batches (``None`` for selectors).

    Generated into the catalog so an op that falls off the batched path shows
    up in a ``make docs-check`` diff instead of in a profile.
    """
    for base in (Mapper, Filter, Deduplicator):
        if issubclass(cls, base):
            overrides = any(
                getattr(cls, name, None) is not getattr(base, name, None)
                for name in _BATCHED_ENTRY_POINTS
            )
            return "batched kernel" if overrides else "per-row default"
    return None


def op_catalog_entries() -> list[dict]:
    """One catalog entry per registered operator, in rendering order."""
    from repro.tools.dataflow import effect_catalog

    signatures = effect_catalog()
    entries = []
    for name in OPERATORS.list():
        cls = OPERATORS.get(name)
        schema = schema_for(cls, name=name)
        entries.append(
            {
                "name": name,
                "category": schema.category,
                "summary": schema.summary,
                "parameters": list(schema.params),
                "effects": signatures.get(name),
                "execution": op_execution(cls),
            }
        )
    order = {category: index for index, category in enumerate(CATEGORY_ORDER)}
    entries.sort(key=lambda entry: (order.get(entry["category"], 99), entry["name"]))
    return entries


def render_ops_catalog() -> str:
    """Render the full operator catalog as deterministic Markdown."""
    entries = op_catalog_entries()
    counts = Counter(entry["category"] for entry in entries)
    lines = [CATALOG_HEADER]
    lines.append(
        "**"
        + ", ".join(
            f"{counts[category]} {category}s"
            for category in CATEGORY_ORDER
            if counts.get(category)
        )
        + f" — {len(entries)} operators.**\n"
    )
    current_category = None
    for entry in entries:
        if entry["category"] != current_category:
            current_category = entry["category"]
            lines.append(f"\n## {current_category.capitalize()}s\n")
        lines.append(f"### `{entry['name']}`\n")
        if entry["summary"]:
            lines.append(entry["summary"] + "\n")
        effects_line = _effects_label(entry.get("effects"))
        if effects_line:
            lines.append(effects_line + "\n")
        if entry["execution"]:
            lines.append(f"*Execution:* `{entry['execution']}`.\n")
        if entry["parameters"]:
            lines.append("| parameter | type | default | constraints | description |")
            lines.append("|---|---|---|---|---|")
            for spec in entry["parameters"]:
                default = spec.default_label()
                if default not in ("required", "unbounded"):
                    default = f"`{default}`"
                lines.append(
                    f"| `{spec.name}` | `{_cell(spec.type_label)}` | {_cell(default)} "
                    f"| {_cell(_constraint_label(spec))} | {_cell(spec.doc or '—')} |"
                )
            lines.append("")
        else:
            lines.append("*No operator-specific parameters.*\n")
    return "\n".join(lines).rstrip() + "\n"


def write_ops_catalog(path: str | Path) -> bool:
    """Write the catalog to ``path``; returns True when the file changed."""
    path = Path(path)
    rendered = render_ops_catalog()
    if path.exists() and path.read_text(encoding="utf-8") == rendered:
        return False
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(rendered, encoding="utf-8")
    return True


def catalog_in_sync(path: str | Path) -> bool:
    """True when the committed catalog matches a fresh render of the registry."""
    path = Path(path)
    return path.exists() and path.read_text(encoding="utf-8") == render_ops_catalog()


__all__ = [
    "CATALOG_HEADER",
    "CATEGORY_ORDER",
    "catalog_in_sync",
    "op_catalog_entries",
    "op_doc_summary",
    "op_execution",
    "op_parameters",
    "render_ops_catalog",
    "write_ops_catalog",
]
