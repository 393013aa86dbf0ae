"""Core of ``repro lint``: rule framework, module model and the lint driver.

The engine's correctness rests on contracts no test executes directly: every
operator is a pure function of its ``config()`` (fingerprint-keyed shard
caching), every constructor parameter surfaces in ``config()`` and
``PARAM_SPECS`` (honest cache keys, typed schemas), and every op instance is
picklable (spawn-mode :class:`repro.parallel.WorkerPool`).  This module
provides the machinery to *prove* those contracts statically, from the AST
alone — no operator is imported, so even a module that would crash on import
can be linted.

Pieces:

* :class:`Violation` — one finding (rule id, severity, file, line, message);
* :class:`LintRule` + :func:`register_rule` — the rule registry.  A rule
  declares an ``id``, ``severity``, one-line ``summary`` and a ``rationale``
  (both feed ``docs/linting.md``) and implements ``check(module)``;
* :class:`LintModule` / :class:`OpClassInfo` — the parsed view rules consume:
  source, AST, per-line suppressions, and every operator class with its
  registration name, category, methods, constructor parameters and
  ``PARAM_SPECS`` literal;
* :func:`lint_paths` — the driver: walk files, parse, run rules, split
  findings into active vs suppressed (``# repro: lint-ignore[rule-id]``).
"""

from __future__ import annotations

import ast
import dataclasses
import functools
import inspect
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator

from repro.core.registry import unknown_name_message
from repro.core.reporting import format_location

#: severity vocabulary, in decreasing order of gravity
ERROR = "error"
WARNING = "warning"
SEVERITIES = (ERROR, WARNING)

#: operator base-class names recognised statically, mapped to their category
CATEGORY_OF_BASE = {
    "Mapper": "mapper",
    "Filter": "filter",
    "Deduplicator": "deduplicator",
    "Selector": "selector",
    "OP": "op",
}

#: directories whose modules are expected to register exactly one operator
OP_MODULE_DIRS = frozenset(CATEGORY_OF_BASE[name] + "s" for name in CATEGORY_OF_BASE if name != "OP")

#: constructor parameters every OP accepts (mirrors ``schema.COMMON_PARAMS``);
#: rules about per-op parameters skip these
COMMON_CTOR_PARAMS = frozenset({"text_key", "batch_size"})

#: method-name prefixes of the data-path ("process paths"): these run once per
#: sample/batch and must be pure functions of (self, input)
PROCESS_METHOD_PREFIXES = ("process", "compute_stats", "compute_hash", "filter_batched")

#: suppression comment: ``# repro: lint-ignore`` (all rules) or
#: ``# repro: lint-ignore[rule-a, rule-b]`` on the offending line
_SUPPRESSION_PATTERN = re.compile(
    r"#\s*repro:\s*lint-ignore(?:\[(?P<rules>[^\]]*)\])?"
)


@dataclass(frozen=True)
class Violation:
    """One finding: which rule fired, where, and what is wrong."""

    rule: str
    severity: str
    path: str
    line: int
    message: str
    op: str = ""

    def __str__(self) -> str:
        where = format_location(self.path, self.line)
        subject = f" ({self.op})" if self.op else ""
        return f"{where}: [{self.rule}] {self.message}{subject}"

    def as_dict(self) -> dict:
        """JSON-ready representation (the ``--json`` reporter row)."""
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "op": self.op,
            "message": self.message,
        }


class LintRule:
    """Base class of every lint rule; subclasses register via :func:`register_rule`.

    A rule is a singleton: stateless across modules, instantiated once at
    registration.  ``check`` yields :class:`Violation` objects (use the
    :meth:`violation` helper so paths/lines/severities stay consistent).
    """

    #: stable kebab-case identifier — the name used by ``--rule`` filters and
    #: ``lint-ignore[...]`` suppressions; never recycle an id
    id = ""
    severity = ERROR
    #: one-line statement of the contract the rule enforces
    summary = ""
    #: why violating the contract corrupts the engine (feeds docs/linting.md)
    rationale = ""

    def check(self, module: "LintModule") -> Iterator[Violation]:
        """Yield every violation of this rule found in ``module``."""
        raise NotImplementedError

    def violation(
        self,
        module: "LintModule",
        node: ast.AST | int,
        message: str,
        op: str = "",
    ) -> Violation:
        """Build a :class:`Violation` anchored at ``node`` (or a line number)."""
        line = node if isinstance(node, int) else getattr(node, "lineno", 1)
        return Violation(
            rule=self.id,
            severity=self.severity,
            path=module.path,
            line=line,
            message=message,
            op=op,
        )


#: the global rule registry: rule id -> rule singleton, in registration order
RULES: dict[str, LintRule] = {}


def register_rule(cls: type) -> type:
    """Class decorator adding a rule singleton to :data:`RULES`."""
    rule = cls()
    if not rule.id or not rule.summary:
        raise ValueError(f"lint rule {cls.__name__} must declare an id and a summary")
    if rule.id in RULES:
        raise ValueError(f"lint rule id {rule.id!r} registered twice")
    if rule.severity not in SEVERITIES:
        raise ValueError(f"lint rule {rule.id!r} has unknown severity {rule.severity!r}")
    RULES[rule.id] = rule
    return cls


def resolve_rules(ids: Iterable[str] | None = None) -> list[LintRule]:
    """The rules to run: all of them, or the subset named by ``ids``.

    Unknown ids raise ``ValueError`` with "did you mean" suggestions so a
    typo'd ``--rule`` filter cannot silently run nothing.
    """
    if ids is None:
        return list(RULES.values())
    rules = []
    for rule_id in ids:
        if rule_id not in RULES:
            raise ValueError(unknown_name_message("lint rule", rule_id, RULES))
        rules.append(RULES[rule_id])
    return rules


def dotted_name(node: ast.AST) -> str:
    """``a.b.c`` for a Name/Attribute chain, ``""`` for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def literal_or_none(node: ast.AST | None):
    """``ast.literal_eval`` that returns ``None`` instead of raising."""
    if node is None:
        return None
    try:
        return ast.literal_eval(node)
    except (ValueError, SyntaxError):
        return None


@dataclass
class ConstructorParam:
    """One ``__init__`` parameter as declared in the source."""

    name: str
    lineno: int
    default: ast.AST | None = None
    annotation: str = ""

    @property
    def default_literal(self):
        """The default as a Python literal, or ``None`` when not a literal."""
        return literal_or_none(self.default)

    @property
    def default_is_unbounded_sentinel(self) -> bool:
        """True for ``sys.maxsize``-style sentinels (unbounded range ends)."""
        names = {dotted_name(node) for node in ast.walk(self.default)} if self.default else set()
        return any(name in ("sys.maxsize", "sys.float_info.max", "sys.float_info") for name in names)


@dataclass
class SelfAssignment:
    """One ``self.<attr> = value`` assignment and where it happens."""

    attr: str
    value: ast.AST
    lineno: int
    method: str


@dataclass
class OpClassInfo:
    """Statically-extracted view of one operator class definition."""

    node: ast.ClassDef
    registered_name: str | None  #: argument of @OPERATORS.register_module(...)
    category: str | None  #: mapper/filter/deduplicator/selector/op, from bases
    methods: dict[str, ast.FunctionDef] = field(default_factory=dict)
    constructor_params: list[ConstructorParam] = field(default_factory=list)
    self_assignments: list[SelfAssignment] = field(default_factory=list)
    param_specs: dict | None = None  #: parsed PARAM_SPECS literal (None: absent)
    param_specs_node: ast.AST | None = None

    @property
    def name(self) -> str:
        """The class name as written in the source."""
        return self.node.name

    @property
    def display_name(self) -> str:
        """Registered op name when known, else the class name."""
        return self.registered_name or self.name

    def own_params(self) -> list[ConstructorParam]:
        """Constructor parameters excluding the common execution knobs."""
        return [p for p in self.constructor_params if p.name not in COMMON_CTOR_PARAMS]

    def init_assignments(self) -> list[SelfAssignment]:
        """``self.<attr> = ...`` assignments made inside ``__init__``."""
        return [a for a in self.self_assignments if a.method == "__init__"]

    def process_methods(self) -> Iterator[ast.FunctionDef]:
        """The data-path methods whose purity the engine depends on."""
        for name, method in self.methods.items():
            if name.startswith(PROCESS_METHOD_PREFIXES):
                yield method


def _is_register_decorator(decorator: ast.AST) -> str | None:
    """The registered name when ``decorator`` is ``@X.register_module(...)``.

    Returns the string argument, the empty string for a bare/derived-name
    registration, or ``None`` when the decorator is something else entirely.
    """
    if not isinstance(decorator, ast.Call):
        return None
    if dotted_name(decorator.func).split(".")[-1] != "register_module":
        return None
    if decorator.args and isinstance(decorator.args[0], ast.Constant):
        value = decorator.args[0].value
        return value if isinstance(value, str) else ""
    return ""


def _extract_op_class(node: ast.ClassDef, known_op: bool = False) -> OpClassInfo | None:
    """Build the :class:`OpClassInfo` of a class, or ``None`` for non-ops.

    A class counts as an operator when it is decorated with
    ``register_module`` or inherits (textually) from a known op base class,
    or when the caller knows it is one (``known_op``).
    """
    registered = None
    for decorator in node.decorator_list:
        name = _is_register_decorator(decorator)
        if name is not None:
            registered = name or None
            break
    category = None
    for base in node.bases:
        base_name = dotted_name(base).split(".")[-1]
        if base_name in CATEGORY_OF_BASE:
            category = CATEGORY_OF_BASE[base_name]
            break
    if registered is None and category is None and not known_op:
        return None

    info = OpClassInfo(node=node, registered_name=registered, category=category)
    for child in node.body:
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.methods[child.name] = child
        elif isinstance(child, ast.Assign):
            for target in child.targets:
                if isinstance(target, ast.Name) and target.id == "PARAM_SPECS":
                    info.param_specs = literal_or_none(child.value)
                    info.param_specs_node = child

    init = info.methods.get("__init__")
    if init is not None:
        args = init.args
        positional = args.args[1:]  # drop self
        defaults = args.defaults
        offset = len(positional) - len(defaults)
        for index, arg in enumerate(positional):
            default = defaults[index - offset] if index >= offset else None
            info.constructor_params.append(
                ConstructorParam(
                    name=arg.arg,
                    lineno=arg.lineno,
                    default=default,
                    annotation=ast.unparse(arg.annotation) if arg.annotation else "",
                )
            )
        for index, arg in enumerate(args.kwonlyargs):
            info.constructor_params.append(
                ConstructorParam(
                    name=arg.arg,
                    lineno=arg.lineno,
                    default=args.kw_defaults[index],
                    annotation=ast.unparse(arg.annotation) if arg.annotation else "",
                )
            )
    for method in info.methods.values():
        for sub in ast.walk(method):
            if isinstance(sub, ast.Assign):
                targets = sub.targets
            elif isinstance(sub, (ast.AugAssign, ast.AnnAssign)):
                targets = [sub.target]
            else:
                continue
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    info.self_assignments.append(
                        SelfAssignment(
                            attr=target.attr,
                            value=getattr(sub, "value", None) or ast.Constant(value=None),
                            lineno=target.lineno,
                            method=method.name,
                        )
                    )
    return info


def _parse_suppressions(source: str) -> dict[int, set[str]]:
    """Per-line suppressed rule ids; ``{"*"}`` suppresses every rule."""
    suppressions: dict[int, set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESSION_PATTERN.search(line)
        if match is None:
            continue
        rules = match.group("rules")
        if rules is None:
            suppressions[lineno] = {"*"}
        else:
            suppressions[lineno] = {rule.strip() for rule in rules.split(",") if rule.strip()}
    return suppressions


@dataclass
class LintModule:
    """One parsed Python file, as seen by the rules."""

    path: str
    source: str
    tree: ast.Module
    op_classes: list[OpClassInfo]
    suppressions: dict[int, set[str]]

    @classmethod
    def parse(cls, path: Path, root: Path | None = None) -> "LintModule":
        """Parse ``path`` into a lintable module (raises ``SyntaxError``)."""
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        display = str(path.relative_to(root)) if root and path.is_relative_to(root) else str(path)
        op_classes = [
            info
            for node in tree.body
            if isinstance(node, ast.ClassDef)
            for info in [_extract_op_class(node)]
            if info is not None
        ]
        return cls(
            path=display,
            source=source,
            tree=tree,
            op_classes=op_classes,
            suppressions=_parse_suppressions(source),
        )

    @property
    def module_stem(self) -> str:
        """File name without the ``.py`` suffix (the expected op name)."""
        return Path(self.path).stem

    @property
    def parent_dir(self) -> str:
        """Name of the directory directly containing the module."""
        return Path(self.path).parent.name

    @property
    def is_op_module(self) -> bool:
        """True for modules that live in a category directory of the op pool."""
        return self.parent_dir in OP_MODULE_DIRS and self.module_stem != "__init__"

    def docstring(self) -> str | None:
        """The module docstring, if any."""
        return ast.get_docstring(self.tree)

    def is_suppressed(self, violation: Violation) -> bool:
        """True when the violation's line carries a matching lint-ignore."""
        rules = self.suppressions.get(violation.line)
        return bool(rules) and ("*" in rules or violation.rule in rules)


@dataclass
class LintResult:
    """Outcome of one lint run: active findings plus suppression accounting."""

    violations: list[Violation] = field(default_factory=list)
    suppressed: list[Violation] = field(default_factory=list)
    files_checked: int = 0
    rule_ids: list[str] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        """Process exit code: 1 on any unsuppressed violation, else 0."""
        return 1 if self.violations else 0

    def counts_by_severity(self) -> dict[str, int]:
        """Active violation counts per severity (zero-filled)."""
        counts = {severity: 0 for severity in SEVERITIES}
        for violation in self.violations:
            counts[violation.severity] = counts.get(violation.severity, 0) + 1
        return counts


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Yield every ``.py`` file under the given files/directories, sorted."""
    for path in paths:
        if path.is_dir():
            yield from sorted(p for p in path.rglob("*.py") if "__pycache__" not in p.parts)
        elif path.suffix == ".py":
            yield path


def default_lint_paths() -> list[Path]:
    """What ``repro lint`` checks by default: the op pool + the service layer.

    The service package ships no operators today, but it *hosts* recipe
    execution — scanning it keeps the gate in place for any op class that
    ever lands there (the picklability/purity contracts apply wherever an op
    is defined), and surfaces syntax errors in the serving code path.
    """
    import repro.ops
    import repro.service

    return [
        Path(repro.ops.__file__).parent,
        Path(repro.service.__file__).parent,
    ]


@functools.lru_cache(maxsize=256)
def lint_class(cls: type, rule_ids: tuple[str, ...]) -> tuple[Violation, ...]:
    """The unsuppressed violations of ``rule_ids`` in one operator class's own
    body, read from its module's source (the check a run makes of an op
    defined outside the pool); none when that source cannot be read."""
    from repro.tools.lint import rules as _rules  # noqa: F401

    try:
        path, (_, start) = Path(inspect.getsourcefile(cls)), inspect.getsourcelines(cls)
        module = LintModule.parse(path)
    except (OSError, TypeError, SyntaxError):
        return ()
    nodes = [
        node for node in ast.walk(module.tree)
        if isinstance(node, ast.ClassDef) and node.name == cls.__name__ and node.lineno >= start
    ]
    if not nodes:
        return ()
    info = _extract_op_class(min(nodes, key=lambda node: node.lineno), known_op=True)
    module = dataclasses.replace(module, op_classes=[info])
    return tuple(
        violation
        for rule in resolve_rules(rule_ids)
        for violation in rule.check(module)
        if not module.is_suppressed(violation)
    )


def check_in_place(process_list: Iterable[dict | str]) -> None:
    """Raise :class:`~repro.core.errors.ConfigError` when an op of a recipe's
    ``process`` list — or a base class of it — defined outside the built-in
    pool (which ``repro lint`` covers) breaks ``purity-inplace``: a run's store
    compares an op's output with its input in memory, so an edited input cell
    would read as unchanged."""
    from repro.core.base_op import OP
    from repro.core.errors import ConfigError
    from repro.ops import OPERATORS, split_process_entry

    classes = {OPERATORS.get(split_process_entry(entry)[0]) for entry in process_list}
    found = sorted({
        str(violation)
        for cls in classes
        for own in cls.__mro__
        if issubclass(own, OP) and not own.__module__.startswith("repro.")
        for violation in lint_class(own, ("purity-inplace",))
    })
    if found:
        raise ConfigError(
            "an operator edits a value read out of its input in place (silence a "
            "false finding with `# repro: lint-ignore[purity-inplace]`):\n  " + "\n  ".join(found)
        )


def lint_paths(
    paths: Iterable[str | Path] | None = None,
    rule_ids: Iterable[str] | None = None,
    root: Path | None = None,
    keep: Callable[[Violation], bool] | None = None,
    severities: Iterable[str] | None = None,
) -> LintResult:
    """Run the (selected) rules over every Python file under ``paths``.

    ``root`` shortens reported paths to be repo-relative; ``keep`` is an
    optional post-filter (the baseline mechanism) applied before suppression
    accounting; ``severities`` restricts findings to the named severity
    levels (the ``--severity`` CLI filter).  Files that fail to parse surface
    as a ``syntax`` violation rather than crashing the run — a broken op
    module must fail the lint gate, not evade it.
    """
    # rule modules self-register on import; import here so callers that only
    # ever touch the framework do not pay for it
    from repro.tools.lint import rules as _rules  # noqa: F401

    resolved = resolve_rules(rule_ids)
    if severities is not None:
        severities = set(severities)
        unknown = severities - set(SEVERITIES)
        if unknown:
            raise ValueError(
                f"unknown severity level(s) {sorted(unknown)}; "
                f"choose from {list(SEVERITIES)}"
            )
    targets = [Path(p) for p in paths] if paths else default_lint_paths()
    if root is None:
        root = Path.cwd()
    result = LintResult(rule_ids=[rule.id for rule in resolved])
    for file_path in iter_python_files(targets):
        result.files_checked += 1
        try:
            module = LintModule.parse(file_path, root=root)
        except SyntaxError as error:
            result.violations.append(
                Violation(
                    rule="syntax",
                    severity=ERROR,
                    path=str(file_path),
                    line=error.lineno or 1,
                    message=f"file does not parse: {error.msg}",
                )
            )
            continue
        for rule in resolved:
            for violation in rule.check(module):
                if severities is not None and violation.severity not in severities:
                    continue
                if keep is not None and not keep(violation):
                    continue
                if module.is_suppressed(violation):
                    result.suppressed.append(violation)
                else:
                    result.violations.append(violation)
    result.violations.sort(key=lambda v: (v.path, v.line, v.rule))
    result.suppressed.sort(key=lambda v: (v.path, v.line, v.rule))
    return result
