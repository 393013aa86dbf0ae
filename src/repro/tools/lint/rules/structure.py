"""Structural rules: batched parity, picklability and registry hygiene.

The columnar op engine and the Analyzer (batched), the per-sample callers
(a fused filter's per-row methods, the tracer's dropped examples, the
reference oracle) and the equivalence suite
(``tests/test_batch_equivalence.py``) assume every op implements *both*
sides of its category's interface; spawn-mode :class:`repro.parallel.
WorkerPool` assumes every op instance pickles; and recipe resolution assumes
one registered op per module whose name matches the file.  These rules make
those assumptions checkable without importing (or executing) anything.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.tools.lint.framework import (
    ERROR,
    WARNING,
    LintModule,
    LintRule,
    Violation,
    dotted_name,
    register_rule,
)

#: batched override -> the per-row counterpart the same class must define
_BATCHED_COUNTERPART = {
    "process_batched": "process",
    "compute_stats_batched": "compute_stats",
    "compute_hash_batched": "compute_hash",
}

#: per category: at least one of each method group must be implemented
_CATEGORY_REQUIRED: dict[str, tuple[tuple[str, ...], ...]] = {
    "mapper": (("process", "process_batched"),),
    "filter": (
        ("compute_stats", "compute_stats_batched"),
        ("process", "process_batched", "filter_batched"),
    ),
    "deduplicator": (("compute_hash", "compute_hash_batched"), ("process",)),
    "selector": (("process",),),
}

#: constructors whose result cannot cross a spawn-mode pickle boundary
_UNPICKLABLE_CALL_SUFFIXES = {
    "Lock": "a lock",
    "RLock": "a lock",
    "Condition": "a condition variable",
    "Event": "an event",
    "Semaphore": "a semaphore",
    "BoundedSemaphore": "a semaphore",
    "Thread": "a thread",
    "Pool": "a process pool",
    "ProcessPoolExecutor": "an executor",
    "ThreadPoolExecutor": "an executor",
}
_OPEN_CALLS = frozenset({"open", "io.open", "gzip.open", "bz2.open", "lzma.open"})


@register_rule
class BatchedParityRule(LintRule):
    """Batched overrides need their per-row counterparts, and vice versa."""

    id = "batched-parity"
    severity = ERROR
    summary = "ops overriding a *_batched method must implement the per-row path too"
    rationale = (
        "op.run and the Analyzer only call the batched entry points, but a "
        "fused filter's per-row methods, the tracer's dropped examples and the "
        "reference oracle (repro.testing.reference.run_per_row) call the "
        "per-row methods; an op with only a batched implementation works until "
        "the first of those callers, and an op implementing neither side of "
        "its category's interface is silently abstract.  The equivalence "
        "suite asserts op.run agrees with the oracle — both sides must exist."
    )

    def check(self, module: LintModule) -> Iterator[Violation]:
        for op in module.op_classes:
            if op.registered_name is None:
                continue  # abstract/helper base classes may be partial
            for batched, per_row in _BATCHED_COUNTERPART.items():
                if batched in op.methods and per_row not in op.methods:
                    yield self.violation(
                        module,
                        op.methods[batched],
                        f"{batched}() is overridden but {per_row}() is not; "
                        "the per-row callers (fusion, the tracer, the "
                        "reference oracle) would use the base-class "
                        "fallback and disagree with the batched path",
                        op=op.display_name,
                    )
            required = _CATEGORY_REQUIRED.get(op.category or "", ())
            for group in required:
                if not any(name in op.methods for name in group):
                    yield self.violation(
                        module,
                        op.node,
                        f"{op.category} implements none of "
                        f"{'/'.join(group)}(); the registry classifies it as "
                        f"a {op.category} but it cannot execute",
                        op=op.display_name,
                    )


@register_rule
class PicklabilityRule(LintRule):
    """No unpicklable state on op instances."""

    id = "picklability"
    severity = ERROR
    summary = "ops must not store locks, handles, generators or lambdas on self"
    rationale = (
        "spawn-mode WorkerPool pickles every op into each worker process; an "
        "instance attribute holding a lambda, a generator, an open file "
        "handle or a lock raises at dispatch time (or worse, forks dead "
        "state).  Keep such resources in module scope or create them lazily "
        "per call."
    )

    def check(self, module: LintModule) -> Iterator[Violation]:
        for op in module.op_classes:
            for assignment in op.self_assignments:
                label = self._unpicklable_label(assignment.value)
                if label is not None:
                    yield self.violation(
                        module,
                        assignment.lineno,
                        f"{assignment.method}() stores {label} in "
                        f"self.{assignment.attr}; op instances must pickle "
                        "for spawn-mode WorkerPool dispatch",
                        op=op.display_name,
                    )

    @staticmethod
    def _unpicklable_label(value: ast.AST) -> str | None:
        """A human label for an unpicklable value expression, else ``None``."""
        if isinstance(value, ast.Lambda):
            return "a lambda"
        if isinstance(value, ast.GeneratorExp):
            return "a generator"
        if isinstance(value, ast.Call):
            target = dotted_name(value.func)
            if target in _OPEN_CALLS:
                return "an open file handle"
            suffix = target.split(".")[-1]
            if suffix in _UNPICKLABLE_CALL_SUFFIXES:
                return _UNPICKLABLE_CALL_SUFFIXES[suffix]
        return None


@register_rule
class RegistryHygieneRule(LintRule):
    """One documented, correctly-named registered op per module."""

    id = "registry-hygiene"
    severity = WARNING
    summary = "op modules register exactly one op, named after the file, with docstrings"
    rationale = (
        "recipes resolve ops by registered name and humans resolve them by "
        "file name — the two must agree; zero or multiple registrations per "
        "module break the one-op-per-file convention the catalog, the docs "
        "and grep all rely on, and missing docstrings ship undocumented "
        "operators into the generated catalog."
    )

    def check(self, module: LintModule) -> Iterator[Violation]:
        registered = [op for op in module.op_classes if op.registered_name is not None]
        if module.is_op_module:
            if not registered:
                yield self.violation(
                    module,
                    1,
                    "op module registers no operator; every module in the "
                    "pool's category directories must register exactly one",
                )
            elif len(registered) > 1:
                for op in registered[1:]:
                    yield self.violation(
                        module,
                        op.node,
                        f"op module registers {len(registered)} operators; "
                        "split each into its own module",
                        op=op.display_name,
                    )
            for op in registered[:1]:
                if op.registered_name != module.module_stem:
                    yield self.violation(
                        module,
                        op.node,
                        f"registered name {op.registered_name!r} does not "
                        f"match the module name {module.module_stem!r}",
                        op=op.display_name,
                    )
            if module.docstring() is None:
                yield self.violation(
                    module, 1, "op module has no module docstring"
                )
        for op in module.op_classes:
            if op.registered_name is None:
                continue
            if ast.get_docstring(op.node) is None:
                yield self.violation(
                    module,
                    op.node,
                    "registered operator class has no docstring; the catalog "
                    "summary and schema docs render empty",
                    op=op.display_name,
                )
