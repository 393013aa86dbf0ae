"""Purity rules: the data path must be a pure function of (self, input).

Shard-cache entries are keyed on ``hash(parent_fp, op.name, op.config())`` —
nothing else.  Any behaviour of ``process*`` / ``compute_stats*`` /
``compute_hash*`` that depends on the wall clock, an unseeded RNG, the
environment, files, the network, or mutable global state makes two runs with
identical fingerprints produce different rows, which silently poisons the
cache, breaks byte-identical streaming exports, and desynchronises
:class:`repro.parallel.WorkerPool` workers from the parent process.
"""

from __future__ import annotations

import ast
from typing import Callable, Iterator

from repro.tools.lint.framework import (
    ERROR,
    LintModule,
    LintRule,
    OpClassInfo,
    Violation,
    dotted_name,
    register_rule,
)

#: wall-clock reads (dotted suffixes matched against call targets)
_TIME_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "date.today",
    }
)

#: module-level random functions that consume the *global* (unseeded) RNG
_GLOBAL_RNG_FUNCS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "randbytes",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "gauss",
        "normalvariate",
        "expovariate",
        "betavariate",
        "triangular",
        "getrandbits",
    }
)

#: attribute-call names that read or write files or URLs (Path / gzip / urllib)
_IO_METHOD_NAMES = frozenset(
    {"open", "urlopen", "urlretrieve", "read_text", "write_text", "read_bytes", "write_bytes"}
)
_IO_MODULE_PREFIXES = ("requests.", "socket.", "subprocess.", "urllib.", "http.", "shutil.")
_OS_FILE_CALLS = frozenset(
    {"os.remove", "os.unlink", "os.rename", "os.replace", "os.makedirs", "os.mkdir", "os.rmdir"}
)


def _is_io_call(target: str) -> bool:
    """True when a dotted call target performs file/network/process I/O."""
    if not target:
        return False
    if target == "open" or target in _OS_FILE_CALLS:
        return True
    if target.startswith(_IO_MODULE_PREFIXES):
        return True
    return "." in target and target.split(".")[-1] in _IO_METHOD_NAMES


def _process_path_calls(op: OpClassInfo) -> Iterator[tuple[ast.Call, str, str]]:
    """Every call in a data-path method as ``(node, dotted_target, method)``."""
    for method in op.process_methods():
        for node in ast.walk(method):
            if isinstance(node, ast.Call):
                yield node, dotted_name(node.func), method.name


class _PurityRule(LintRule):
    """Shared iteration helper for the per-hazard purity rules."""

    severity = ERROR

    def check_op(self, module: LintModule, op: OpClassInfo) -> Iterator[Violation]:
        raise NotImplementedError

    def check(self, module: LintModule) -> Iterator[Violation]:
        for op in module.op_classes:
            yield from self.check_op(module, op)


@register_rule
class PurityTimeRule(_PurityRule):
    """No wall-clock reads inside the data path."""

    id = "purity-time"
    summary = "process paths must not read the wall clock"
    rationale = (
        "time.time()/datetime.now() make op output depend on when it runs, so "
        "a cached shard and a recomputed shard diverge under one fingerprint."
    )

    def check_op(self, module: LintModule, op: OpClassInfo) -> Iterator[Violation]:
        for node, target, method in _process_path_calls(op):
            tail = ".".join(target.split(".")[-2:])
            if tail in _TIME_CALLS:
                yield self.violation(
                    module,
                    node,
                    f"{method}() reads the wall clock via {target}(); op output "
                    "must be reproducible from config() alone",
                    op=op.display_name,
                )


@register_rule
class PurityRandomRule(_PurityRule):
    """Randomness in the data path must come from a seeded generator."""

    id = "purity-random"
    summary = "process paths must not draw from unseeded RNGs"
    rationale = (
        "the global random module (and unseeded Random()/numpy RNGs) is not a "
        "function of config(), so fingerprints — and therefore shard-cache "
        "keys — lie about what the op produced; thread an explicit seed "
        "through the constructor instead."
    )

    def check_op(self, module: LintModule, op: OpClassInfo) -> Iterator[Violation]:
        for node, target, method in _process_path_calls(op):
            parts = target.split(".")
            if len(parts) == 2 and parts[0] == "random" and parts[1] in _GLOBAL_RNG_FUNCS:
                yield self.violation(
                    module,
                    node,
                    f"{method}() draws from the global RNG via {target}(); use "
                    "random.Random(self.seed) with a seed stored in config()",
                    op=op.display_name,
                )
            elif parts[-1] == "Random" and not node.args and not node.keywords:
                yield self.violation(
                    module,
                    node,
                    f"{method}() constructs an unseeded random.Random(); pass a "
                    "seed that is part of config()",
                    op=op.display_name,
                )
            elif ".".join(parts[:-1]).endswith(("numpy.random", "np.random")):
                yield self.violation(
                    module,
                    node,
                    f"{method}() uses {target}(); numpy global RNG state is not "
                    "part of config() — use a seeded Generator instead",
                    op=op.display_name,
                )


@register_rule
class PurityEnvRule(_PurityRule):
    """No environment reads inside the data path."""

    id = "purity-env"
    summary = "process paths must not read os.environ"
    rationale = (
        "environment variables differ between hosts and WorkerPool spawn "
        "modes; behaviour they control belongs in constructor parameters "
        "where it reaches config() and the cache key."
    )

    def check_op(self, module: LintModule, op: OpClassInfo) -> Iterator[Violation]:
        for method in op.process_methods():
            for node in ast.walk(method):
                target = dotted_name(node) if isinstance(node, ast.Attribute) else ""
                if target == "os.environ":
                    yield self.violation(
                        module,
                        node,
                        f"{method.name}() reads os.environ; promote the setting "
                        "to a constructor parameter so it reaches config()",
                        op=op.display_name,
                    )
                elif isinstance(node, ast.Call) and dotted_name(node.func) == "os.getenv":
                    yield self.violation(
                        module,
                        node,
                        f"{method.name}() calls os.getenv(); promote the setting "
                        "to a constructor parameter so it reaches config()",
                        op=op.display_name,
                    )


@register_rule
class PurityIoRule(_PurityRule):
    """No file or network I/O inside the data path."""

    id = "purity-io"
    summary = "process paths must not perform file or network I/O"
    rationale = (
        "reading files or the network inside the per-sample path makes output "
        "depend on external state invisible to the fingerprint, and blocks "
        "the batched/pooled executors on I/O they cannot schedule; load "
        "resources in __init__ or module scope instead."
    )

    def check_op(self, module: LintModule, op: OpClassInfo) -> Iterator[Violation]:
        for node, target, method in _process_path_calls(op):
            if _is_io_call(target):
                yield self.violation(
                    module,
                    node,
                    f"{method}() performs I/O via {target}(); process paths "
                    "must not touch files or the network",
                    op=op.display_name,
                )


@register_rule
class PurityGlobalRule(_PurityRule):
    """No global or instance state mutation inside the data path."""

    id = "purity-global"
    summary = "process paths must not mutate global, class or instance state"
    rationale = (
        "state written during processing leaks across samples and shards, "
        "differs between worker processes, and survives into later ops — the "
        "shard cache and the two-pass streaming engine both assume an op's "
        "behaviour is frozen at construction time."
    )

    def check_op(self, module: LintModule, op: OpClassInfo) -> Iterator[Violation]:
        process_names = {method.name for method in op.process_methods()}
        for method in op.process_methods():
            for node in ast.walk(method):
                if isinstance(node, ast.Global):
                    yield self.violation(
                        module,
                        node,
                        f"{method.name}() declares `global {', '.join(node.names)}`; "
                        "module state mutated per sample is invisible to the "
                        "fingerprint and races across workers",
                        op=op.display_name,
                    )
        for assignment in op.self_assignments:
            if assignment.method in process_names:
                yield self.violation(
                    module,
                    assignment.lineno,
                    f"{assignment.method}() assigns self.{assignment.attr}; "
                    "operators must be stateless after construction (shard "
                    "caching and pool dispatch assume frozen op state)",
                    op=op.display_name,
                )
        # mutation of class attributes (ClassName.x = ... / type(self).x = ...)
        for method in op.process_methods():
            for node in ast.walk(method):
                if isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    for target in targets:
                        if not isinstance(target, ast.Attribute):
                            continue
                        base = dotted_name(target.value)
                        is_type_self = (
                            isinstance(target.value, ast.Call)
                            and dotted_name(target.value.func) == "type"
                        )
                        if base == op.name or base == "self.__class__" or is_type_self:
                            yield self.violation(
                                module,
                                target,
                                f"{method.name}() mutates class attribute "
                                f"{target.attr}; shared class state written per "
                                "sample races across workers and shards",
                                op=op.display_name,
                            )



#: methods that change the container they are called on
_MUTATORS = frozenset(
    "append extend insert remove pop popitem clear update setdefault sort reverse add "
    "discard difference_update intersection_update symmetric_difference_update "
    "__setitem__ __delitem__".split()
)


def _held_cells(method: ast.FunctionDef) -> Callable[[ast.AST], bool]:
    """Whether an expression of ``method`` is a value read out of its input row
    or batch (its first parameter after ``self``): ``x[...]`` or ``x.get(...)``
    / ``x.setdefault(...)`` of the input or of such a value, a name bound from
    one (a loop variable from what it iterates, ``zip`` included).  A per-row
    ``compute_stats`` owns what it reads under ``__stats__``: its shim folds it
    fresh."""
    params = [arg.arg for arg in method.args.args if arg.arg != "self"]
    names: set[str] = set()

    def held(node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return node.id in names
        if isinstance(node, ast.Call) and dotted_name(node.func) in ("zip", "enumerate"):
            return any(map(held, node.args))
        if isinstance(node, (ast.Tuple, ast.List, ast.BoolOp)):
            return any(map(held, getattr(node, "elts", None) or getattr(node, "values", [])))
        if isinstance(node, ast.IfExp):
            return held(node.body) or held(node.orelse)
        if isinstance(node, ast.Subscript):
            key, base = node.slice, node.value
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) in ("get", "setdefault"):
            key, base = next(iter(node.args), None), node.func.value
        else:
            return False
        if isinstance(base, ast.Name) and params and base.id == params[0]:
            own = method.name == "compute_stats" and key is not None and (
                getattr(key, "value", None) == "__stats__" or dotted_name(key) == "Fields.stats")
            return not own
        return held(base)

    bindings = [(target, node.value) for node in ast.walk(method) if isinstance(node, ast.Assign)
                for target in node.targets]
    bindings += [(node.target, getattr(node, "value", None) or getattr(node, "iter", None))
                 for node in ast.walk(method)
                 if isinstance(node, (ast.AnnAssign, ast.NamedExpr, ast.For, ast.comprehension))]
    def bound(target: ast.AST) -> Iterator[str]:  # names a target binds to what it unpacks
        if isinstance(target, ast.Name):
            yield target.id
        elif isinstance(target, (ast.Tuple, ast.List)):  # a starred name gets a new list
            for element in target.elts:
                yield from bound(element)

    grown = True
    while grown:  # a name bound from a held value (or another such name) holds one
        grown = False
        for target, value in bindings:
            for name in bound(target):
                if name not in names and value is not None and held(value):
                    names.add(name)
                    grown = True
    return held


@register_rule
class PurityInPlaceRule(_PurityRule):
    """No edit of a value read out of the op's input row or batch."""

    id = "purity-inplace"
    summary = "process paths must not edit a cell of their input in place"
    rationale = (
        "the input row's cells are the parent dataset's, which the store compares "
        "the op's output against and other rows may share: an op writes new keys "
        "on the row or batch dict (a Filter a stat column), never into a value it "
        "read from it."
    )

    def check_op(self, module: LintModule, op: OpClassInfo) -> Iterator[Violation]:
        for method in op.process_methods():
            held = _held_cells(method)
            for node in ast.walk(method):
                if isinstance(node, (ast.Assign, ast.Delete)):
                    edits = [t.value for t in node.targets if isinstance(t, ast.Subscript)]
                elif isinstance(node, ast.AugAssign):
                    edits = [node.target, getattr(node.target, "value", node.target)]
                elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) in _MUTATORS:
                    edits = [node.func.value]
                else:
                    continue
                if any(map(held, edits)):
                    yield self.violation(
                        module,
                        node,
                        f"{method.name}() edits a value read out of its input in place; "
                        "write a new key on the row or batch dict (a Filter: a stat column)",
                        op=op.display_name,
                    )
