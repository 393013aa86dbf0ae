"""AST-inferred operator effect signatures — the per-op dataflow facts.

An :class:`EffectSignature` records, for one operator, which sample fields it
*reads*, *writes* and *removes*, which context keys it produces or consumes,
and what it does to the row set — all inferred statically from the operator's
source by reusing the ``repro lint`` module model
(:class:`repro.tools.lint.framework.LintModule` /
:class:`~repro.tools.lint.framework.OpClassInfo`).  No operator is imported,
so even a module that would crash on import still yields a signature.

Field paths use the same dotted convention as ``get_field``/``set_field``:
``meta.stars``, ``__stats__.text_len``.  Paths that depend on a constructor
parameter are recorded as ``<param>`` placeholders (``<text_key>``,
``<field_key>``) and concretised per recipe step by
:meth:`EffectSignature.resolve`.

The extractor recognises the accessor idioms the operator pool actually uses
(all of them enforced by the lint rules of PR 6):

* ``self.get_text(sample)`` / ``self.set_text(sample, ...)`` and the batched
  ``get_text_column`` / ``set_text_column`` — read/write of ``<text_key>``;
* ``get_field`` / ``set_field`` / ``has_field`` with literal, ``self.<attr>``
  or ``Fields``/``StatsKeys``/``HashKeys`` keys;
* subscripts, ``.get(...)`` and ``in``-tests against ``__stats__`` views,
  hash columns and the sample itself;
* ``write_stat(samples, key, ...)`` / ``read_stat(samples, key, ...)`` — the
  stat column ``__stats__.<key>`` a batched filter writes or reads;
* ``get_or_compute`` / ``get_or_compute_column`` and the declarative
  ``context_keys`` class attribute — shared-context production/consumption;
* ``remove_columns(...)`` — column removal (deduplicators dropping their
  signature columns), and ``hash_column(dataset, key)`` — the column read
  their clustering starts from.

The catalog is versioned (:data:`EFFECT_SIGNATURE_VERSION`) so downstream
consumers — the dataflow checker, ``docs/ops_catalog.md``, the future
service layer — can detect format changes.
"""

from __future__ import annotations

import ast
import functools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from repro.core.context import ContextKeys
from repro.core.sample import Fields, HashKeys, StatsKeys
from repro.tools.lint.framework import (
    LintModule,
    OpClassInfo,
    default_lint_paths,
    dotted_name,
    iter_python_files,
)

#: bump when the EffectSignature fields or path conventions change shape
EFFECT_SIGNATURE_VERSION = 1


def _public_values(cls: type) -> dict[str, str]:
    """``{attr: value}`` for the string class attributes of a key namespace."""
    return {
        name: value
        for name, value in vars(cls).items()
        if not name.startswith("_") and isinstance(value, str)
    }


_STATS_VALUES = _public_values(StatsKeys)
_HASH_VALUES = _public_values(HashKeys)
_CONTEXT_VALUES = _public_values(ContextKeys)
_FIELD_VALUES = _public_values(Fields)

#: the standard signature columns streaming dedup knows how to carry
HASH_COLUMNS = frozenset(_HASH_VALUES.values())

#: container fields accessing *into* which is namespace plumbing, not a read
_CONTAINER_FIELDS = frozenset({Fields.stats, Fields.context})

#: variable names treated as "the sample/batch mapping" for literal-key
#: subscripts (``sample["tag"]``); anything else is assumed to be a plain
#: dict the op owns internally
_SAMPLE_NAMES = frozenset({"sample", "samples", "row", "record"})

#: row-set effect per operator category — every op has one, which is what
#: makes the "every op has a non-empty signature" guarantee honest even for
#: ops that touch no fields at all (e.g. ``random_selector``)
ROW_EFFECT_OF_CATEGORY = {
    "mapper": "rewrites rows in place",
    "filter": "drops rows failing its predicate",
    "deduplicator": "drops duplicate rows",
    "selector": "keeps a chosen subset of rows",
}


@dataclass(frozen=True)
class EffectSignature:
    """Statically-inferred dataflow contract of one operator.

    ``reads``/``writes``/``removes`` are dotted field paths (stats keys appear
    as ``__stats__.<key>``, hash columns by their column name); paths holding
    a ``<param>`` placeholder are resolved against recipe parameters by
    :meth:`resolve`.  ``context_reads``/``context_writes`` name shared
    context keys (:class:`repro.core.context.ContextKeys` values).
    """

    op: str
    category: str
    reads: tuple[str, ...] = ()
    writes: tuple[str, ...] = ()
    removes: tuple[str, ...] = ()
    context_reads: tuple[str, ...] = ()
    context_writes: tuple[str, ...] = ()
    row_effect: str = "passes rows through"
    param_defaults: dict = field(default_factory=dict)

    @property
    def is_empty(self) -> bool:
        """True when the signature carries no information at all."""
        return not (
            self.reads
            or self.writes
            or self.removes
            or self.context_reads
            or self.context_writes
            or self.row_effect != "passes rows through"
        )

    def as_dict(self) -> dict:
        """JSON-ready representation (stable key order)."""
        return {
            "op": self.op,
            "category": self.category,
            "reads": list(self.reads),
            "writes": list(self.writes),
            "removes": list(self.removes),
            "context_reads": list(self.context_reads),
            "context_writes": list(self.context_writes),
            "row_effect": self.row_effect,
            "param_defaults": dict(self.param_defaults),
        }

    def resolve(self, params: dict | None = None) -> "ResolvedEffects":
        """Concretise ``<param>`` placeholders against one recipe step.

        Parameters missing from both ``params`` and the constructor defaults
        (or resolving to a non-string) drop the path — the checker treats an
        unresolvable path as unknown rather than guessing.
        """
        params = params or {}

        def concretise(paths: tuple[str, ...]) -> frozenset:
            out = set()
            for path in paths:
                resolved = self._resolve_path(path, params)
                if resolved:
                    out.add(resolved)
            return frozenset(out)

        return ResolvedEffects(
            reads=concretise(self.reads),
            writes=concretise(self.writes),
            removes=concretise(self.removes),
            context_reads=frozenset(self.context_reads),
            context_writes=frozenset(self.context_writes),
        )

    def _resolve_path(self, path: str, params: dict) -> str | None:
        if "<" not in path:
            return path
        out = path
        start = path.find("<")
        while start != -1:
            end = out.find(">", start)
            if end == -1:
                return None
            attr = out[start + 1 : end]
            value = params.get(attr, self.param_defaults.get(attr))
            if not isinstance(value, str) or not value:
                return None
            out = out[:start] + value + out[end + 1 :]
            start = out.find("<")
        return out


@dataclass(frozen=True)
class ResolvedEffects:
    """An :class:`EffectSignature` with placeholders bound to one recipe step."""

    reads: frozenset = frozenset()
    writes: frozenset = frozenset()
    removes: frozenset = frozenset()
    context_reads: frozenset = frozenset()
    context_writes: frozenset = frozenset()

    @property
    def context(self) -> frozenset:
        """All context keys the op touches (fusion-sharing test)."""
        return self.context_reads | self.context_writes


# --------------------------------------------------------------------------
# key resolution: AST node -> tagged (kind, value) pairs
# --------------------------------------------------------------------------

_STATS_TAG = "stats"
_FIELD_TAG = "field"
_HASH_TAG = "hash"
_CONTEXT_TAG = "context"
_CONTAINER_TAG = "container"
_LITERAL_TAG = "literal"


def _classify_literal(value: str) -> tuple[str, str]:
    """Classify a literal key independent of its subscript base."""
    if value in HASH_COLUMNS:
        return (_HASH_TAG, value)
    if value in _CONTAINER_FIELDS:
        return (_CONTAINER_TAG, value)
    if value.startswith(Fields.stats + "."):
        return (_STATS_TAG, value[len(Fields.stats) + 1 :])
    return (_LITERAL_TAG, value)


class _KeyResolver:
    """Resolves key expressions of one operator class to tagged values."""

    def __init__(self, info: OpClassInfo):
        self.param_names = {p.name for p in info.constructor_params}
        self.init_literals: dict[str, str] = {}
        for assignment in info.init_assignments():
            literal = None
            if isinstance(assignment.value, ast.Constant) and isinstance(
                assignment.value.value, str
            ):
                literal = assignment.value.value
            if literal is not None:
                self.init_literals.setdefault(assignment.attr, literal)
        self.local_keys: dict[str, set] = {}

    def learn_locals(self, method: ast.FunctionDef) -> None:
        """Record ``key = StatsKeys.x if ... else StatsKeys.y`` style locals."""
        self.local_keys = {}
        for node in ast.walk(method):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            found = set()
            for sub in ast.walk(node.value):
                if isinstance(sub, ast.Attribute) and not (
                    isinstance(sub.value, ast.Name) and sub.value.id == "self"
                ):
                    found.update(self._resolve_attribute(sub))
            if found:
                self.local_keys[target.id] = found

    def _resolve_attribute(self, node: ast.Attribute) -> set:
        dotted = dotted_name(node)
        if not dotted or "." not in dotted:
            return set()
        base, attr = dotted.split(".", 1)
        if base == "StatsKeys" and attr in _STATS_VALUES:
            return {(_STATS_TAG, _STATS_VALUES[attr])}
        if base == "HashKeys" and attr in _HASH_VALUES:
            return {(_HASH_TAG, _HASH_VALUES[attr])}
        if base == "ContextKeys" and attr in _CONTEXT_VALUES:
            return {(_CONTEXT_TAG, _CONTEXT_VALUES[attr])}
        if base == "Fields" and attr in _FIELD_VALUES:
            return {_classify_literal(_FIELD_VALUES[attr])}
        if base == "self":
            if attr in self.param_names:
                return {(_FIELD_TAG, f"<{attr}>")}
            literal = self.init_literals.get(attr)
            if literal is not None:
                return {_classify_literal(literal)}
        return set()

    def resolve(self, node: ast.AST | None) -> set:
        """All tagged keys a key expression may denote (empty: unresolvable)."""
        if node is None:
            return set()
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return {_classify_literal(node.value)}
        if isinstance(node, ast.Attribute):
            return self._resolve_attribute(node)
        if isinstance(node, ast.Name):
            return set(self.local_keys.get(node.id, ()))
        if isinstance(node, (ast.Tuple, ast.List)):
            out = set()
            for element in node.elts:
                out.update(self.resolve(element))
            return out
        return set()


def _is_stats_base(node: ast.AST, resolver: _KeyResolver) -> bool:
    """True when ``node`` denotes a ``__stats__`` view (``stats[...]`` etc.)."""
    if isinstance(node, ast.Name):
        return node.id == "stats" or node.id.startswith("stats_")
    if isinstance(node, ast.Subscript):
        return any(tag == _CONTAINER_TAG and value == Fields.stats
                   for tag, value in resolver.resolve(node.slice))
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr == "get" and node.args:
            return any(tag == _CONTAINER_TAG and value == Fields.stats
                       for tag, value in resolver.resolve(node.args[0]))
    if isinstance(node, ast.Call):  # ensure_stats(sample) returns the row's stats view
        return dotted_name(node.func).split(".")[-1] == "ensure_stats"
    return False


def _is_sample_base(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return node.id in _SAMPLE_NAMES
    return False


@dataclass
class _Effects:
    reads: set = field(default_factory=set)
    writes: set = field(default_factory=set)
    removes: set = field(default_factory=set)
    context_reads: set = field(default_factory=set)
    context_writes: set = field(default_factory=set)

    def record(self, base: ast.AST | None, keys: set, bucket: set,
               resolver: _KeyResolver) -> None:
        """File resolved keys into ``bucket`` as dotted field paths."""
        stats_base = base is not None and _is_stats_base(base, resolver)
        sample_base = base is not None and _is_sample_base(base)
        for tag, value in keys:
            if tag == _STATS_TAG:
                bucket.add(f"{Fields.stats}.{value}")
            elif tag == _HASH_TAG:
                bucket.add(value)
            elif tag == _CONTEXT_TAG:
                if bucket is self.reads:
                    self.context_reads.add(value)
                elif bucket is self.writes:
                    self.context_writes.add(value)
            elif tag == _FIELD_TAG:
                bucket.add(value)
            elif tag == _LITERAL_TAG:
                # a bare literal key counts only against a known base: a
                # stats view makes it a stats key, the sample mapping a field
                if stats_base:
                    bucket.add(f"{Fields.stats}.{value}")
                elif sample_base or base is None:
                    bucket.add(value)


def _extract_method(method: ast.FunctionDef, resolver: _KeyResolver,
                    effects: _Effects) -> None:
    """Accumulate the effects of one data-path method (nested defs included)."""
    resolver.learn_locals(method)
    for node in ast.walk(method):
        if isinstance(node, ast.Subscript):
            base, keys = node.value, resolver.resolve(node.slice)
            if isinstance(node.ctx, ast.Store):
                effects.record(base, keys, effects.writes, resolver)
            elif isinstance(node.ctx, ast.Del):
                effects.record(base, keys, effects.removes, resolver)
            else:
                effects.record(base, keys, effects.reads, resolver)
        elif isinstance(node, ast.Compare):
            if any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops):
                base = node.comparators[0] if node.comparators else None
                if base is not None and (
                    _is_stats_base(base, resolver) or _is_sample_base(base)
                ):
                    effects.record(base, resolver.resolve(node.left),
                                   effects.reads, resolver)
        elif isinstance(node, ast.Call):
            _extract_call(node, resolver, effects)


def _extract_call(node: ast.Call, resolver: _KeyResolver, effects: _Effects) -> None:
    func = node.func
    callee = dotted_name(func)
    # dotted_name gives up on chained-call bases (``x.select(...).remove_columns``);
    # the attribute name alone is enough to recognise the accessor helpers
    short = callee.split(".")[-1] if callee else (
        func.attr if isinstance(func, ast.Attribute) else ""
    )

    if callee == "self.get_text":
        effects.record(None, {(_FIELD_TAG, "<text_key>")}, effects.reads, resolver)
    elif callee == "self.set_text":
        effects.record(None, {(_FIELD_TAG, "<text_key>")}, effects.writes, resolver)
    elif short == "get_text_column":
        keys = resolver.resolve(node.args[1]) if len(node.args) > 1 else {
            (_FIELD_TAG, "<text_key>")
        }
        effects.record(None, keys or {(_FIELD_TAG, "<text_key>")}, effects.reads, resolver)
    elif short == "set_text_column":
        keys = resolver.resolve(node.args[1]) if len(node.args) > 1 else {
            (_FIELD_TAG, "<text_key>")
        }
        effects.record(None, keys or {(_FIELD_TAG, "<text_key>")}, effects.writes, resolver)
    elif short in ("get_field", "has_field") and len(node.args) > 1:
        effects.record(None, resolver.resolve(node.args[1]), effects.reads, resolver)
    elif short == "set_field" and len(node.args) > 1:
        effects.record(None, resolver.resolve(node.args[1]), effects.writes, resolver)
    elif short in ("get_or_compute", "get_or_compute_column") and len(node.args) > 1:
        keys = resolver.resolve(node.args[1])
        effects.record(None, keys, effects.reads, resolver)
        effects.record(None, keys, effects.writes, resolver)
    elif short in ("write_stat", "read_stat") and len(node.args) > 1:
        # a stat column: write_stat(samples, key, ...) / read_stat(samples, key, ...)
        keys = {
            (_STATS_TAG, value) if tag == _LITERAL_TAG else (tag, value)
            for tag, value in resolver.resolve(node.args[1])
        }
        bucket = effects.writes if short == "write_stat" else effects.reads
        effects.record(None, keys, bucket, resolver)
    elif short == "remove_columns":
        for arg in node.args:
            effects.record(None, resolver.resolve(arg), effects.removes, resolver)
    elif short == "hash_column" and len(node.args) > 1:
        effects.record(None, resolver.resolve(node.args[1]), effects.reads, resolver)
    elif isinstance(func, ast.Attribute) and func.attr == "get" and node.args:
        base = func.value
        if _is_stats_base(base, resolver) or _is_sample_base(base):
            effects.record(base, resolver.resolve(node.args[0]), effects.reads, resolver)
        else:
            keys = {
                (tag, value)
                for tag, value in resolver.resolve(node.args[0])
                if tag != _LITERAL_TAG
            }
            effects.record(base, keys, effects.reads, resolver)


def _declared_context_keys(info: OpClassInfo, resolver: _KeyResolver) -> set:
    """Context keys from the declarative ``context_keys`` class attribute."""
    declared = set()
    for child in info.node.body:
        if not isinstance(child, ast.Assign):
            continue
        for target in child.targets:
            if isinstance(target, ast.Name) and target.id == "context_keys":
                for tag, value in resolver.resolve(child.value):
                    if tag == _CONTEXT_TAG:
                        declared.add(value)
                    elif tag == _LITERAL_TAG:
                        declared.add(value)
    return declared


def extract_signature(info: OpClassInfo) -> EffectSignature:
    """Infer the :class:`EffectSignature` of one parsed operator class."""
    resolver = _KeyResolver(info)
    effects = _Effects()
    for method in info.process_methods():
        _extract_method(method, resolver, effects)
    effects.context_writes |= _declared_context_keys(info, resolver)

    category = info.category or "op"
    defaults = {
        p.name: p.default_literal
        for p in info.constructor_params
        if isinstance(p.default_literal, str)
    }
    defaults.setdefault("text_key", Fields.text)
    for path in ("reads", "writes", "removes"):
        getattr(effects, path).discard(Fields.stats)
        getattr(effects, path).discard(Fields.context)
    return EffectSignature(
        op=info.display_name,
        category=category,
        reads=tuple(sorted(effects.reads)),
        writes=tuple(sorted(effects.writes)),
        removes=tuple(sorted(effects.removes)),
        context_reads=tuple(sorted(effects.context_reads)),
        context_writes=tuple(sorted(effects.context_writes)),
        row_effect=ROW_EFFECT_OF_CATEGORY.get(category, "passes rows through"),
        param_defaults=defaults,
    )


def extract_effects_from_path(path: str | Path) -> dict[str, EffectSignature]:
    """Signatures of every operator class in one module (fixtures, plugins)."""
    module = LintModule.parse(Path(path))
    return {
        info.display_name: extract_signature(info)
        for info in module.op_classes
        if info.registered_name or info.category
    }


def _iter_signatures(paths: Iterable[Path]) -> Iterator[EffectSignature]:
    for file_path in iter_python_files(paths):
        try:
            module = LintModule.parse(file_path)
        except SyntaxError:
            continue
        for info in module.op_classes:
            if info.registered_name:
                yield extract_signature(info)


_CATALOG_CACHE: dict[str, EffectSignature] | None = None


def effect_catalog(refresh: bool = False) -> dict[str, EffectSignature]:
    """The signature catalog of the built-in operator pool (cached)."""
    global _CATALOG_CACHE
    if _CATALOG_CACHE is None or refresh:
        _CATALOG_CACHE = {
            signature.op: signature
            for signature in _iter_signatures(default_lint_paths())
        }
    return _CATALOG_CACHE


def op_module_path(op_name: str) -> Path:
    """Where a built-in op is defined: ``repro/ops/<kind>s/<op_name>.py``, its
    kind the last word of its name (``repro/ops/deduplicators/document_deduplicator.py``)."""
    import repro.ops

    return Path(repro.ops.__file__).parent / f"{op_name.rsplit('_', 1)[-1]}s" / f"{op_name}.py"


@functools.lru_cache(maxsize=128)
def _module_signature(op_name: str) -> EffectSignature | None:
    """The signature of ``op_name`` parsed from :func:`op_module_path` alone."""
    if not (isinstance(op_name, str) and op_name.isidentifier()):
        return None  # a recipe's name is no path: the full scan decides
    try:
        classes = LintModule.parse(op_module_path(op_name)).op_classes
    except (OSError, SyntaxError):
        return None
    return next((extract_signature(info) for info in classes if info.registered_name == op_name), None)


def recipe_signatures(op_names: Iterable[str]) -> dict[str, EffectSignature]:
    """The catalog entries of ``op_names``, each parsed from its op's module
    alone; a name off that path falls back to the full :func:`effect_catalog`."""
    found = {} if _CATALOG_CACHE else {name: _module_signature(name) for name in op_names}
    return found if found and None not in found.values() else effect_catalog()


def effect_signature(op_name: str) -> EffectSignature | None:
    """The catalog signature of one registered op, or ``None`` if unknown."""
    return effect_catalog().get(op_name)


def catalog_as_dict() -> dict:
    """The whole catalog as a versioned, JSON-ready document."""
    return {
        "version": EFFECT_SIGNATURE_VERSION,
        "signatures": {
            name: signature.as_dict()
            for name, signature in sorted(effect_catalog().items())
        },
    }


__all__ = [
    "EFFECT_SIGNATURE_VERSION",
    "EffectSignature",
    "HASH_COLUMNS",
    "ResolvedEffects",
    "catalog_as_dict",
    "effect_catalog",
    "effect_signature",
    "extract_effects_from_path",
    "extract_signature",
    "op_module_path",
    "recipe_signatures",
]
