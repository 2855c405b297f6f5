"""Project-specific AST lint (``repro lint``).

Generic linters cannot know this project's invariants, so these rules are
written against them directly:

==========  =================================================================
rule        meaning
==========  =================================================================
``LT200``   file does not parse (syntax error)
``LT201``   a table (``PLATFORMS``, ``STRATEGIES``, ``ENDPOINTS``,
            ``MODEL_BUILDERS``, ``STANDARD_LAYOUTS``) is mutated outside a
            ``register_*`` function — each table is its literal, and only
            ``PLATFORMS`` is open, through ``register_platform``
``LT202``   unseeded ``random`` in ``multiobj/`` — frontier construction and
            tie-breaking must be deterministic per seed (use
            ``random.Random(seed)``)
``LT203``   ``json.dumps``/``json.dump`` without ``sort_keys=True`` on a
            serialization path — documents must serialize byte-identically
``LT204``   lock discipline: an attribute mutated under a ``with <lock>:``
            block somewhere in its class is read or written outside one —
            a data race in the concurrent service/session layer
==========  =================================================================

Every rule can be silenced per line with ``# noqa: <CODE>`` (a bare
``# noqa`` silences all rules on that line).  The rules are the plain functions
listed in :data:`RULES`, run in that order over every file.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, List, Sequence, Set, Tuple, Union

from repro.analysis.passes import Finding, Report

#: Tables that are never mutated outside a ``register_*`` function.
REGISTRY_NAMES = frozenset(
    {"PLATFORMS", "STRATEGIES", "ENDPOINTS", "MODEL_BUILDERS", "STANDARD_LAYOUTS"}
)

#: Methods that mutate a dict/list receiver in place.
_MUTATOR_METHODS = frozenset(
    {
        "append",
        "extend",
        "add",
        "insert",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "clear",
        "remove",
        "discard",
    }
)

#: Module suffixes whose ``json.dumps``/``json.dump`` calls are serialization
#: paths (documents that must be byte-stable across runs and processes).
SERIALIZATION_MODULE_SUFFIXES = (
    "cost/serialize.py",
    "cost/store.py",
    "multiobj/frontier.py",
    "service/app.py",
    "analysis/passes.py",
    "repro/jsondoc.py",
)

_NOQA = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9_, ]+))?", re.IGNORECASE)


@dataclass
class SourceContext:
    """One parsed source file handed to every rule in :data:`RULES`."""

    path: str  # posix-style path label used for rule applicability
    tree: ast.AST
    lines: List[str]


def _suppressed(lines: List[str], lineno: int, rule: str) -> bool:
    """Whether the physical line carries a ``# noqa`` matching ``rule``."""
    if not 1 <= lineno <= len(lines):
        return False
    match = _NOQA.search(lines[lineno - 1])
    if match is None:
        return False
    codes = match.group("codes")
    if codes is None:
        return True
    return rule.upper() in {code.strip().upper() for code in codes.split(",")}


def _enclosing_register(func_stack: Sequence[str]) -> bool:
    return any(name.startswith(("register", "unregister")) for name in func_stack)


# ---------------------------------------------------------------------------
# LT201 — table mutation outside register_* functions
# ---------------------------------------------------------------------------


class _RegistryMutationVisitor(ast.NodeVisitor):
    def __init__(self) -> None:
        self.func_stack: List[str] = []
        self.hits: List[Tuple[int, str]] = []

    def _registry_of(self, node: ast.AST) -> str:
        """The registry name a subscript/attribute expression is rooted in."""
        while isinstance(node, ast.Subscript):
            node = node.value
        if isinstance(node, ast.Name) and node.id in REGISTRY_NAMES:
            return node.id
        return ""

    def _flag(self, lineno: int, registry: str, action: str) -> None:
        if _enclosing_register(self.func_stack):
            return
        if registry == "PLATFORMS":
            noun, remedy = "registry", "publish through register_platform instead"
        else:
            noun, remedy = "table", f"add a row to the {registry} literal instead"
        self.hits.append(
            (
                lineno,
                f"{noun} {registry} is {action} outside a register_* function; {remedy}",
            )
        )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.func_stack.append(node.name)
        self.generic_visit(node)
        self.func_stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if isinstance(target, ast.Subscript):
                registry = self._registry_of(target)
                if registry:
                    self._flag(node.lineno, registry, "assigned into")
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.target, ast.Subscript):
            registry = self._registry_of(node.target)
            if registry:
                self._flag(node.lineno, registry, "assigned into")
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            if isinstance(target, ast.Subscript):
                registry = self._registry_of(target)
                if registry:
                    self._flag(node.lineno, registry, "deleted from")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _MUTATOR_METHODS
            and isinstance(func.value, ast.Name)
            and func.value.id in REGISTRY_NAMES
        ):
            self._flag(node.lineno, func.value.id, f"mutated via .{func.attr}()")
        self.generic_visit(node)


def lint_registry_mutation(ctx: SourceContext) -> Iterator[Finding]:
    """LT201: tables mutated only inside register_* functions."""
    visitor = _RegistryMutationVisitor()
    visitor.visit(ctx.tree)
    for lineno, message in visitor.hits:
        yield Finding("LT201", "error", f"{ctx.path}:{lineno}", message)


# ---------------------------------------------------------------------------
# LT202 — unseeded random in multiobj/
# ---------------------------------------------------------------------------


def lint_unseeded_random(ctx: SourceContext) -> Iterator[Finding]:
    """LT202: multiobj/ must use seeded random.Random instances."""
    if "/multiobj/" not in f"/{ctx.path}":
        return
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ImportFrom) and node.module == "random":
            bad = [
                alias.name
                for alias in node.names
                if alias.name not in ("Random", "SystemRandom")
            ]
            if bad:
                yield Finding(
                    "LT202",
                    "error",
                    f"{ctx.path}:{node.lineno}",
                    f"module-level random functions ({', '.join(bad)}) share "
                    f"unseeded global state; import Random and seed an instance",
                )
        elif isinstance(node, ast.Call):
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "random"
            ):
                continue
            if func.attr == "Random":
                if not node.args and not node.keywords:
                    yield Finding(
                        "LT202",
                        "error",
                        f"{ctx.path}:{node.lineno}",
                        "random.Random() without a seed is not reproducible; "
                        "pass an explicit seed",
                    )
            elif func.attr not in ("SystemRandom",):
                yield Finding(
                    "LT202",
                    "error",
                    f"{ctx.path}:{node.lineno}",
                    f"random.{func.attr}() draws from unseeded global state; "
                    f"use a seeded random.Random instance",
                )


# ---------------------------------------------------------------------------
# LT203 — json.dumps without sort_keys=True on serialization paths
# ---------------------------------------------------------------------------


def lint_unsorted_json(ctx: SourceContext) -> Iterator[Finding]:
    """LT203: serialization paths dump JSON with sort_keys=True."""
    if not ctx.path.endswith(SERIALIZATION_MODULE_SUFFIXES):
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr in ("dump", "dumps")
            and isinstance(func.value, ast.Name)
            and func.value.id == "json"
        ):
            continue
        sorted_keys = any(
            keyword.arg == "sort_keys"
            and isinstance(keyword.value, ast.Constant)
            and keyword.value.value is True
            for keyword in node.keywords
        )
        if not sorted_keys:
            yield Finding(
                "LT203",
                "error",
                f"{ctx.path}:{node.lineno}",
                f"json.{func.attr} on a serialization path must pass "
                f"sort_keys=True so documents serialize byte-identically",
            )


# ---------------------------------------------------------------------------
# LT204 — lock discipline in api.py / service/
# ---------------------------------------------------------------------------

_LOCK_FACTORIES = frozenset({"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"})


def _is_lock_name(name: str) -> bool:
    return "lock" in name.lower()


class _LockDisciplineVisitor(ast.NodeVisitor):
    """Collect every ``self.<attr>`` access of one class with its context."""

    def __init__(self, lock_attrs: Set[str]) -> None:
        self.lock_attrs = lock_attrs
        self.func_stack: List[str] = []
        self.with_depth = 0
        #: (attr, lineno, under_lock, mutation, in_init)
        self.accesses: List[Tuple[str, int, bool, bool, bool]] = []

    # -- helpers -----------------------------------------------------------------

    def _in_init(self) -> bool:
        return any(name in ("__init__", "__post_init__") for name in self.func_stack)

    def _is_lock_expr(self, expr: ast.AST) -> bool:
        for node in ast.walk(expr):
            if isinstance(node, ast.Attribute) and (
                node.attr in self.lock_attrs or _is_lock_name(node.attr)
            ):
                return True
            if isinstance(node, ast.Name) and _is_lock_name(node.id):
                return True
        return False

    def _record(self, attr: str, lineno: int, mutation: bool) -> None:
        if attr in self.lock_attrs or _is_lock_name(attr):
            return
        self.accesses.append(
            (attr, lineno, self.with_depth > 0, mutation, self._in_init())
        )

    def _base_self_attr(self, node: ast.AST) -> Tuple[str, int]:
        """Unwrap subscripts to the ``self.<attr>`` base of a target, if any."""
        while isinstance(node, ast.Subscript):
            node = node.value
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return node.attr, node.lineno
        return "", 0

    # -- structure ---------------------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.func_stack.append(node.name)
        self.generic_visit(node)
        self.func_stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_With(self, node: ast.With) -> None:
        takes_lock = any(self._is_lock_expr(item.context_expr) for item in node.items)
        for item in node.items:
            self.visit(item.context_expr)
            if item.optional_vars is not None:
                self.visit(item.optional_vars)
        if takes_lock:
            self.with_depth += 1
        for statement in node.body:
            self.visit(statement)
        if takes_lock:
            self.with_depth -= 1

    # -- accesses ----------------------------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            attr, lineno = self._base_self_attr(target)
            if attr:
                self._record(attr, lineno, mutation=True)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        attr, lineno = self._base_self_attr(node.target)
        if attr:
            self._record(attr, lineno, mutation=True)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            attr, lineno = self._base_self_attr(target)
            if attr:
                self._record(attr, lineno, mutation=True)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _MUTATOR_METHODS:
            attr, lineno = self._base_self_attr(func.value)
            if attr:
                self._record(attr, lineno, mutation=True)
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.value, ast.Name) and node.value.id == "self":
            self._record(
                node.attr, node.lineno, mutation=isinstance(node.ctx, (ast.Store, ast.Del))
            )
        self.generic_visit(node)


def _class_lock_attrs(node: ast.ClassDef) -> Set[str]:
    """Attributes of one class holding locks/conditions (by factory or name)."""
    lock_attrs: Set[str] = set()
    for child in ast.walk(node):
        if not isinstance(child, ast.Assign):
            continue
        value = child.value
        is_lock_value = (
            isinstance(value, ast.Call)
            and (
                (isinstance(value.func, ast.Attribute) and value.func.attr in _LOCK_FACTORIES)
                or (isinstance(value.func, ast.Name) and value.func.id in _LOCK_FACTORIES)
            )
        )
        for target in child.targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and (is_lock_value or _is_lock_name(target.attr))
            ):
                lock_attrs.add(target.attr)
    return lock_attrs


def lint_lock_discipline(ctx: SourceContext) -> Iterator[Finding]:
    """LT204: lock-guarded attributes never touched outside the lock."""
    path = f"/{ctx.path}"
    if not (path.endswith("/api.py") or "/service/" in path):
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        lock_attrs = _class_lock_attrs(node)
        if not lock_attrs:
            continue
        visitor = _LockDisciplineVisitor(lock_attrs)
        for statement in node.body:
            visitor.visit(statement)
        guarded = {
            attr
            for attr, _, under_lock, mutation, in_init in visitor.accesses
            if under_lock and mutation and not in_init
        }
        if not guarded:
            continue
        seen: Set[Tuple[str, int]] = set()
        for attr, lineno, under_lock, _, in_init in visitor.accesses:
            if attr not in guarded or under_lock or in_init:
                continue
            if (attr, lineno) in seen:
                continue
            seen.add((attr, lineno))
            yield Finding(
                "LT204",
                "error",
                f"{ctx.path}:{lineno}",
                f"self.{attr} is mutated under a lock elsewhere in class "
                f"{node.name} but accessed here outside any 'with <lock>:' "
                f"block (data race)",
            )


#: Every lint rule, in run order.
RULES: Tuple[Callable[[SourceContext], Iterator[Finding]], ...] = (
    lint_registry_mutation,
    lint_unseeded_random,
    lint_unsorted_json,
    lint_lock_discipline,
)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def lint_source(source: str, path: Union[str, Path]) -> List[Finding]:
    """All lint findings of one source string (``# noqa`` already applied)."""
    label = Path(path).as_posix()
    lines = source.splitlines()
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [
            Finding(
                "LT200",
                "error",
                f"{label}:{exc.lineno or 0}",
                f"file does not parse: {exc.msg}",
            )
        ]
    context = SourceContext(path=label, tree=tree, lines=lines)
    findings: List[Finding] = []
    for rule in RULES:
        for finding in rule(context):
            _, _, lineno_text = finding.location.rpartition(":")
            lineno = int(lineno_text) if lineno_text.isdigit() else 0
            if not _suppressed(lines, lineno, finding.rule):
                findings.append(finding)
    return findings


def lint_file(path: Union[str, Path]) -> List[Finding]:
    return lint_source(Path(path).read_text(), path)


def iter_python_files(paths: Sequence[Union[str, Path]]) -> List[Path]:
    """Expand files/directories into a sorted list of python files."""
    collected: List[Path] = []
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            collected.extend(sorted(entry.rglob("*.py")))
        else:
            collected.append(entry)
    return collected


def run_lint(paths: Sequence[Union[str, Path]]) -> Report:
    """Lint files/directories into one report (the ``repro lint`` backend)."""
    report = Report(subject=", ".join(Path(p).as_posix() for p in paths))
    for path in iter_python_files(paths):
        report.extend(lint_file(path))
    return report
