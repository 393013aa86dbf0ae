"""The recipe dataflow checker: symbolic execution over a field-set lattice.

Given a recipe (a :class:`repro.core.config.RecipeConfig`, a payload dict or
a YAML/JSON path), the checker resolves each step's
:class:`~repro.tools.dataflow.effects.EffectSignature` against its parameters
and walks the pipeline once, tracking which fields are *known* (produced by
an earlier step, seeded from ``text_keys`` and the declared ``input_fields``)
and which writes are still *live* (never consumed).  Five rules fire along
the way:

``undefined-read`` (error)
    A step reads a field no earlier step produces.  Internal namespaces
    (``__stats__.*``, hash columns) are closed-world — the full key universe
    is known statically, so unknown reads get did-you-mean suggestions.
    User fields (``meta.stars``) are open-world *unless* the recipe declares
    ``input_fields``, which opts into closed-world checking for them too.

``order-hazard`` (error / warning)
    A step reads a field that *is* produced — but only by a later step
    (error, names the producer), or a mapper mutates a field a deduplicator
    already hashed (warning: rows that were duplicates at dedup time may no
    longer be after the rewrite, which is usually a recipe-ordering mistake).

``dead-write`` (warning)
    An internal-namespace write no later step reads before export strips it
    (stats columns when ``keep_stats_in_export`` is off), or any write
    overwritten by a later step with no intervening read.

``fusion-unsafe`` (error)
    With ``op_fusion`` on, :func:`repro.core.fusion.fuse_operators` moves the
    fusible members of a consecutive-filter group *after* its non-fusible
    members.  A non-fusible filter consuming stats produced by a fusible
    member of its own group therefore runs before its producer — regardless
    of the order written in the recipe.

``stream-unsafe`` (error)
    Both run loops cut a recipe into segments closed by a global step, so
    every run — in memory or streaming — rejects op categories outside
    mapper/filter/deduplicator/selector and deduplicators whose signatures
    live outside the standard hash columns.  The checker reports both
    statically, before a single row is read (``stream-unsafe@N`` still works).

Findings can be suppressed per recipe via ``dataflow_ignore`` entries of the
form ``rule`` or ``rule@step`` (1-based step index).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.core.registry import suggestion_hint
from repro.core.sample import Fields
from repro.tools.dataflow.effects import (
    EFFECT_SIGNATURE_VERSION,
    HASH_COLUMNS,
    EffectSignature,
    ResolvedEffects,
    _STATS_VALUES,
    recipe_signatures,
)

ERROR = "error"
WARNING = "warning"

#: rule id -> (default severity, one-line summary, rationale) — feeds
#: ``docs/dataflow.md`` and the ``repro dataflow`` JSON schema
DATAFLOW_RULES = {
    "undefined-read": (
        ERROR,
        "every field a step reads must be produced earlier or arrive with the input",
        "a read of a never-produced field silently sees the accessor default "
        "mid-corpus — filters drop everything, selectors sort on nothing",
    ),
    "order-hazard": (
        ERROR,
        "consumers must run after their producers, and nothing may mutate a "
        "field a deduplicator already hashed",
        "the same ops in a different order are a different program; these "
        "hazards reorder silently instead of failing",
    ),
    "dead-write": (
        WARNING,
        "internal-namespace writes must be read before export strips them, "
        "and no write may shadow an unread earlier write",
        "dead writes are paid for on every row of the corpus and usually "
        "indicate a step is missing or misordered",
    ),
    "fusion-unsafe": (
        ERROR,
        "with op_fusion on, no non-fusible filter may consume stats produced "
        "by a fusible member of its own group",
        "fusion moves fused filters after the non-fusible rest of the group, "
        "so the consumer would run before its producer",
    ),
    "stream-unsafe": (
        ERROR,
        "recipes may only use op categories the global step resolves and "
        "standard-column dedup signatures",
        "the planner discovers these at run time, after rows have flowed; "
        "the checker proves them before the job is accepted",
    ),
}

#: op categories both run loops accept (mirrors ``plan_segments``)
_STREAMABLE_CATEGORIES = frozenset({"mapper", "filter", "deduplicator", "selector"})

#: fields every formatter provides alongside the text payload
_FORMATTER_FIELDS = (Fields.suffix, Fields.source)


@dataclass(frozen=True)
class DataflowFinding:
    """One dataflow rule firing at one recipe step (1-based index)."""

    rule: str
    severity: str
    index: int
    op: str
    field: str
    message: str

    def __str__(self) -> str:
        return f"step {self.index} ({self.op}): [{self.rule}] {self.message}"

    def as_dict(self) -> dict:
        """JSON-ready representation (the ``--json`` reporter row)."""
        return {
            "rule": self.rule,
            "severity": self.severity,
            "step": self.index,
            "op": self.op,
            "field": self.field,
            "message": self.message,
        }


@dataclass
class DataflowResult:
    """Outcome of checking one recipe: findings plus suppression accounting."""

    findings: list[DataflowFinding] = field(default_factory=list)
    suppressed: list[DataflowFinding] = field(default_factory=list)
    ops_checked: int = 0
    recipe: str = ""

    @property
    def exit_code(self) -> int:
        """Process exit code: 1 on any unsuppressed finding, else 0."""
        return 1 if self.findings else 0

    def counts_by_severity(self) -> dict[str, int]:
        """Active finding counts per severity (zero-filled)."""
        counts = {ERROR: 0, WARNING: 0}
        for finding in self.findings:
            counts[finding.severity] = counts.get(finding.severity, 0) + 1
        return counts


def _is_internal(path: str) -> bool:
    """Internal namespaces are stripped at export and closed-world."""
    return (
        path.startswith(Fields.stats + ".")
        or path in HASH_COLUMNS
        or path.startswith(Fields.context)
    )


def _stats_universe(extra: Iterable[str] = ()) -> list[str]:
    paths = {f"{Fields.stats}.{value}" for value in _STATS_VALUES.values()}
    paths.update(extra)
    return sorted(paths)


@dataclass
class _LiveWrite:
    step: int
    op: str
    consumed: bool


def check_steps(
    steps: list,
    *,
    signatures: dict[str, EffectSignature] | None = None,
    text_keys: Iterable[str] = (),
    input_fields: Iterable[str] | None = None,
    op_fusion: bool = False,
    keep_stats_in_export: bool = False,
) -> list[DataflowFinding]:
    """Check a list of ``(op_name, params)`` steps; the low-level entry point.

    ``signatures`` defaults to the built-in catalog (the steps' entries:
    :func:`~repro.tools.dataflow.effects.recipe_signatures`); tests extend it with
    :func:`~repro.tools.dataflow.effects.extract_effects_from_path` to check
    synthetic pipelines.  Ops without a signature are skipped (the schema
    validator already rejects unknown op names).
    """
    catalog = signatures if signatures is not None else recipe_signatures(n for n, _ in steps)
    resolved: list[tuple[str, EffectSignature | None, ResolvedEffects | None]] = []
    for name, params in steps:
        signature = catalog.get(name)
        effects = signature.resolve(params or {}) if signature else None
        resolved.append((name, signature, effects))

    findings: list[DataflowFinding] = []

    # the lattice seed: text columns plus whatever the formatter/input provides
    known: dict[str, int] = {Fields.text: 0}
    for key in text_keys:
        if isinstance(key, str) and key:
            known[key] = 0
    for formatter_field in _FORMATTER_FIELDS:
        known[formatter_field] = 0
    closed_world = input_fields is not None
    declared = [f for f in (input_fields or []) if isinstance(f, str) and f]
    for declared_field in declared:
        known[declared_field] = 0

    # who writes each field, for order-hazard producer lookup
    future_writers: dict[str, list[int]] = {}
    for index, (_, _, effects) in enumerate(resolved, start=1):
        if effects is None:
            continue
        for path in effects.writes:
            future_writers.setdefault(path, []).append(index)

    live: dict[str, _LiveWrite] = {}
    hashed_by: dict[str, tuple[int, str]] = {}

    for index, (name, signature, effects) in enumerate(resolved, start=1):
        if signature is None or effects is None:
            continue
        self_produced = effects.reads & effects.writes

        for path in sorted(effects.reads):
            if path in known:
                if path in live:
                    live[path].consumed = True
                continue
            if path in self_produced:
                continue  # the op's own stats/hash stage feeds its predicate
            producer = next(
                (j for j in future_writers.get(path, ()) if j > index), None
            )
            if producer is not None:
                findings.append(DataflowFinding(
                    rule="order-hazard",
                    severity=ERROR,
                    index=index,
                    op=name,
                    field=path,
                    message=(
                        f"reads {path!r} which is only produced later, by "
                        f"step {producer} ({resolved[producer - 1][0]}); move "
                        f"the producer before this step"
                    ),
                ))
            elif _is_internal(path):
                candidates = _stats_universe(known) + sorted(HASH_COLUMNS)
                hint = suggestion_hint(path, candidates, "known fields")
                findings.append(DataflowFinding(
                    rule="undefined-read",
                    severity=ERROR,
                    index=index,
                    op=name,
                    field=path,
                    message=(
                        f"reads {path!r} but no earlier step produces it"
                        + (f"; {hint}" if hint else "")
                    ),
                ))
            elif closed_world:
                candidates = sorted(set(declared) | {
                    f for f in known if not _is_internal(f)
                })
                hint = suggestion_hint(path, candidates, "declared input fields")
                findings.append(DataflowFinding(
                    rule="undefined-read",
                    severity=ERROR,
                    index=index,
                    op=name,
                    field=path,
                    message=(
                        f"reads {path!r} which is neither in input_fields nor "
                        f"produced by an earlier step"
                        + (f"; {hint}" if hint else "")
                    ),
                ))
            # open-world user field: assumed to arrive with the input

        for path in sorted(effects.writes):
            if path in hashed_by and signature.category == "mapper":
                dedup_step, dedup_name = hashed_by[path]
                findings.append(DataflowFinding(
                    rule="order-hazard",
                    severity=WARNING,
                    index=index,
                    op=name,
                    field=path,
                    message=(
                        f"mutates {path!r} after step {dedup_step} "
                        f"({dedup_name}) already hashed it; rows deduplicated "
                        f"on the old text — move this mapper before the dedup"
                    ),
                ))
            previous = live.get(path)
            if (
                previous is not None
                and not previous.consumed
                and previous.step != index
                and path not in effects.reads
            ):
                findings.append(DataflowFinding(
                    rule="dead-write",
                    severity=WARNING,
                    index=previous.step,
                    op=previous.op,
                    field=path,
                    message=(
                        f"writes {path!r} which step {index} ({name}) "
                        f"overwrites without any step reading it in between"
                    ),
                ))
            live[path] = _LiveWrite(
                step=index, op=name, consumed=path in self_produced
            )
            known[path] = index

        for path in effects.removes:
            known.pop(path, None)
            live.pop(path, None)

        if signature.category == "deduplicator":
            for path in effects.reads:
                if not _is_internal(path):
                    hashed_by[path] = (index, name)

    # writes still live at export time
    for path, entry in sorted(live.items()):
        if entry.consumed or not _is_internal(path):
            continue
        if path.startswith(Fields.stats + ".") and keep_stats_in_export:
            continue
        findings.append(DataflowFinding(
            rule="dead-write",
            severity=WARNING,
            index=entry.step,
            op=entry.op,
            field=path,
            message=(
                f"writes {path!r} which no later step reads and export "
                f"strips (internal columns never reach the output"
                + (
                    "; set keep_stats_in_export to keep stats columns)"
                    if path.startswith(Fields.stats + ".")
                    else ")"
                )
            ),
        ))

    if op_fusion:
        findings.extend(_fusion_findings(resolved))
    findings.extend(_stream_findings(resolved))

    findings.sort(key=lambda f: (f.index, f.rule, f.field))
    return findings


def _fusion_findings(resolved: list) -> list[DataflowFinding]:
    """Mirror ``fuse_operators``: fused filters run *after* group leftovers."""
    findings: list[DataflowFinding] = []
    group: list[int] = []

    def flush() -> None:
        if len(group) < 2:
            group.clear()
            return
        contexts = {
            i: resolved[i - 1][2].context for i in group if resolved[i - 1][2]
        }
        fusible = {
            i
            for i in group
            if contexts.get(i)
            and any(
                contexts[i] & contexts.get(j, frozenset())
                for j in group
                if j != i
            )
        }
        if len(fusible) >= 2:
            produced = {}
            for i in sorted(fusible):
                for path in resolved[i - 1][2].writes:
                    produced.setdefault(path, i)
            for i in group:
                if i in fusible:
                    continue
                effects = resolved[i - 1][2]
                if effects is None:
                    continue
                for path in sorted(effects.reads - effects.writes):
                    if path in produced:
                        j = produced[path]
                        findings.append(DataflowFinding(
                            rule="fusion-unsafe",
                            severity=ERROR,
                            index=i,
                            op=resolved[i - 1][0],
                            field=path,
                            message=(
                                f"reads {path!r} produced by step {j} "
                                f"({resolved[j - 1][0]}), but op_fusion moves "
                                f"the fused filters after this one — disable "
                                f"op_fusion or share context between the two"
                            ),
                        ))
        group.clear()

    for index, (_, signature, _) in enumerate(resolved, start=1):
        if signature is not None and signature.category == "filter":
            group.append(index)
        else:
            flush()
    flush()
    return findings


def _stream_findings(resolved: list) -> list[DataflowFinding]:
    """Mirror the run-time rejections of the segmentation and global step."""
    findings: list[DataflowFinding] = []
    for index, (name, signature, effects) in enumerate(resolved, start=1):
        if signature is None:
            continue
        if signature.category not in _STREAMABLE_CATEGORIES:
            findings.append(DataflowFinding(
                rule="stream-unsafe",
                severity=ERROR,
                index=index,
                op=name,
                field="",
                message=(
                    f"category {signature.category!r} cannot run (only "
                    f"mapper/filter/deduplicator/selector can)"
                ),
            ))
        elif signature.category == "deduplicator" and effects is not None:
            if not (effects.writes & HASH_COLUMNS):
                outside = ", ".join(sorted(effects.writes)) or "no column"
                findings.append(DataflowFinding(
                    rule="stream-unsafe",
                    severity=ERROR,
                    index=index,
                    op=name,
                    field=next(iter(sorted(effects.writes)), ""),
                    message=(
                        f"stores its dedup signature in {outside}, outside "
                        f"the standard hash columns the global step resolves"
                    ),
                ))
    return findings


def _parse_ignore(entries: Iterable[str]) -> list[tuple[str, int | None]]:
    parsed = []
    for entry in entries:
        if not isinstance(entry, str):
            continue
        rule, _, step = entry.partition("@")
        parsed.append((rule.strip(), int(step) if step.strip().isdigit() else None))
    return parsed


def check_recipe(
    recipe,
    *,
    stream: bool | None = None,
    signatures: dict[str, EffectSignature] | None = None,
) -> DataflowResult:
    """Check one recipe (config object, payload dict, or YAML/JSON path).

    Every rule applies in every mode; ``stream`` is accepted and ignored (it
    once switched ``stream-unsafe`` on).
    """
    del stream
    from repro.core.config import load_recipe_payload
    from repro.ops import split_process_entry

    payload = load_recipe_payload(recipe)
    steps = []
    for entry in payload.get("process") or []:
        try:
            steps.append(split_process_entry(entry))
        except (ValueError, TypeError):
            continue  # schema validation owns malformed entries
    raw_text_keys = payload.get("text_keys")
    text_keys = raw_text_keys if isinstance(raw_text_keys, (list, tuple)) else []

    findings = check_steps(
        steps,
        signatures=signatures,
        text_keys=text_keys,
        input_fields=payload.get("input_fields"),
        op_fusion=bool(payload.get("op_fusion")),
        keep_stats_in_export=bool(payload.get("keep_stats_in_export")),
    )

    result = DataflowResult(
        ops_checked=len(steps),
        recipe=str(payload.get("project_name") or ""),
    )
    ignored = _parse_ignore(payload.get("dataflow_ignore") or [])
    for finding in findings:
        if any(
            rule == finding.rule and (step is None or step == finding.index)
            for rule, step in ignored
        ):
            result.suppressed.append(finding)
        else:
            result.findings.append(finding)
    return result


def dataflow_rule_ids() -> list[str]:
    """Every dataflow rule id, in declaration order."""
    return list(DATAFLOW_RULES)


__all__ = [
    "DATAFLOW_RULES",
    "DataflowFinding",
    "DataflowResult",
    "EFFECT_SIGNATURE_VERSION",
    "check_recipe",
    "check_steps",
    "dataflow_rule_ids",
]
