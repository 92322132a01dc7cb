"""AST-based lint enforcing the repository's own code invariants.

The engine's conformance story rests on encapsulation invariants that
ordinary tests cannot see: lock tables move only through Moss'
transition methods, the thread-safe facade touches engine internals
only under its mutex, counters mutate only inside the engine.  This
pass walks the source with :mod:`ast` (stdlib only) and enforces them:

=======  =========================================================
CD001    lock-table / version-map state (``write_holders``,
         ``read_holders``, ``versions``, ``_versions``) mutated
         through a non-``self`` receiver -- lock state must change
         only inside its owning class's transition methods
CD002    ``self._engine`` / ``self._inner`` internals of a
         mutex-guarded class touched outside a ``with`` over the
         mutex / condition variable
CD003    ``.status`` of another object assigned outside the engine
         transition modules
CD004    engine ``stats`` counters mutated through a non-``self``
         receiver outside the engine transition modules
CD005    lock-holder tables / version stacks mutated (even through
         ``self``) outside the modules that own the transition
         discipline -- a policy or helper class that grows its own
         ``write_holders.add`` bypasses the lock manager
CD006    ``zlib.crc32`` (or ``crc32`` imported by name) outside
         ``repro/core/framing.py`` -- a checksum anywhere else is
         another copy of the frame codec
CD007    a second emission seam: a listener hook (``.obs``,
         ``.observer``, ``.recorder``, ``._wal``) assigned onto
         another object, or onto ``self`` in ``repro.engine`` /
         ``repro.mvto``; or a model-alphabet event
         (:mod:`repro.core.events`) built in those packages outside
         the spine and its recorder
=======  =========================================================

A line may opt out with ``# repro-lint: ignore`` or
``# repro-lint: ignore[CD002]`` when the invariant holds for a reason
the AST cannot see (e.g. a helper documented as called under the
lock); the justification belongs in a comment beside it.
"""

from __future__ import annotations

import ast
import os
import re
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.findings import (
    AnalysisReport,
    Finding,
    Rule,
    register_rule,
)

CD000 = register_rule(
    "CD000",
    "unparseable module",
    "repo invariant",
    "The module could not be parsed; nothing in it can be checked.",
)
CD001 = register_rule(
    "CD001",
    "lock state mutated outside its owner",
    "repo invariant; cf. Section 5.2 (M(X) transitions)",
    "Lockholder sets and version maps may only change inside the "
    "methods of the class that owns them (ManagedObject, VersionMap "
    "and their policy-specific twins); mutation through another "
    "object's attribute bypasses Moss' transition discipline.",
)
CD002 = register_rule(
    "CD002",
    "guarded internals touched without the mutex",
    "repo invariant; engine thread-safety",
    "Inside a mutex-guarded facade class, attributes of the wrapped "
    "engine/transaction must only be touched within a `with` block "
    "over the mutex or its condition variable.",
)
CD003 = register_rule(
    "CD003",
    "transaction status assigned outside the engine",
    "repo invariant; cf. Section 3.3 (return decisions)",
    "A transaction's status records the scheduler's irrevocable "
    "commit/abort decision; only the engine transition modules may "
    "assign it on another object.",
)
CD004 = register_rule(
    "CD004",
    "engine stats mutated outside the engine",
    "repo invariant",
    "Engine counters are part of engine state; external drivers must "
    "go through an engine method (e.g. count_deadlock) instead of "
    "mutating engine.stats in place.",
)

CD005 = register_rule(
    "CD005",
    "lock state mutated outside the owner modules",
    "repo invariant; cf. Section 5.2 (M(X) transitions)",
    "Lockholder sets and version stacks transition only inside the "
    "lock-manager / version-map / MV-object modules (and the "
    "checker's reference re-execution of the same rules); any other "
    "module mutating them -- even on self -- is running its own lock "
    "protocol outside the audited discipline.",
)

CD006 = register_rule(
    "CD006",
    "CRC32 computed outside the frame codec",
    "repo invariant; docs/DURABILITY.md (record format)",
    "repro.core.framing is the only reader and writer of "
    "`varint(len) body crc32le(body)`; the WAL, the wire protocol and "
    "the decision log call it.  A crc32 elsewhere is a second codec "
    "that the golden-frame tests do not cover.",
)

CD007 = register_rule(
    "CD007",
    "a second emission seam",
    "repo invariant; docs/OBSERVABILITY.md (the event spine)",
    "Engines announce their transitions only through the event spine "
    "(repro.engine.spine), and every listener subscribes to it.  A "
    "listener hook assigned onto an engine or lock manager, or "
    "model-alphabet events built inside the engine packages, is a "
    "second seam that the spine's golden pins and zero-cost tests do "
    "not cover.",
)

CODE_RULES = (CD001, CD002, CD003, CD004, CD005, CD006, CD007)

#: Attributes forming the lock-table / version-map state (CD001).
LOCK_STATE_ATTRS = frozenset(
    {"write_holders", "read_holders", "versions", "_versions"}
)

#: Method names that mutate their receiver in place (CD001/CD004).
MUTATING_METHODS = frozenset(
    {
        "add", "discard", "remove", "clear", "update", "pop",
        "popitem", "append", "extend", "insert", "setdefault",
        "install", "promote", "discard_subtree",
    }
)

#: Modules allowed to assign .status / mutate .stats on other objects.
TRANSITION_MODULES = (os.path.join("repro", "engine", "engine.py"),)

#: Modules whose classes own lock-holder / version state (CD005).
#: ``analysis/schedule.py`` is the offline checker's reference
#: re-execution of the same transition rules -- a deliberate second
#: implementation, not a bypass.
LOCK_OWNER_MODULES = (
    os.path.join("repro", "engine", "lockmanager.py"),
    os.path.join("repro", "engine", "versions.py"),
    os.path.join("repro", "mvto", "mv_object.py"),
    os.path.join("repro", "analysis", "schedule.py"),
)

#: Modules allowed to compute a CRC32 (CD006): the frame codec, and
#: the object store's cross-process sharding hash (not a checksum).
CRC_MODULES = (
    os.path.join("repro", "core", "framing.py"),
    os.path.join("repro", "kernel", "store.py"),
)

#: Listener-hook attribute names (CD007).
HOOK_ATTRS = frozenset({"obs", "observer", "recorder", "_wal"})

#: Packages whose classes are engines or lock managers (CD007).
ENGINE_PACKAGES = (
    os.path.join("repro", "engine") + os.sep,
    os.path.join("repro", "mvto") + os.sep,
)

#: The spine itself, and the recorder that speaks the model alphabet.
SPINE_MODULES = (
    os.path.join("repro", "engine", "spine.py"),
    os.path.join("repro", "engine", "trace.py"),
)

#: The model-alphabet event module (CD007).
EVENTS_MODULE = "repro.core.events"

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*ignore(?:\[(?P<codes>[A-Z0-9, ]+)\])?"
)


_CD006_MESSAGE = (
    "crc32 outside repro/core/framing.py; frame bytes with "
    "repro.core.framing instead"
)


def _suppressions(source: str) -> dict:
    """Map line number -> set of suppressed codes (empty = all)."""
    found = {}
    for number, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if match:
            codes = match.group("codes")
            found[number] = (
                frozenset(c.strip() for c in codes.split(","))
                if codes
                else frozenset()
            )
    return found


def _is_self(node: ast.expr) -> bool:
    return isinstance(node, ast.Name) and node.id == "self"


def _receiver_of_attribute(node: ast.expr) -> Optional[ast.expr]:
    """For ``expr.attr`` return ``expr``; None for non-attributes."""
    if isinstance(node, ast.Attribute):
        return node.value
    return None


class _ModuleLinter(ast.NodeVisitor):
    """One file's worth of CD001-CD007 checks."""

    def __init__(self, path: str, tree: ast.Module, source: str):
        self.path = path
        self.tree = tree
        self.suppressed = _suppressions(source)
        self.findings: List[Finding] = []
        self.is_transition_module = any(
            path.endswith(suffix) for suffix in TRANSITION_MODULES
        )
        self.is_lock_owner_module = any(
            path.endswith(suffix) for suffix in LOCK_OWNER_MODULES
        )
        self.is_crc_module = any(
            path.endswith(suffix) for suffix in CRC_MODULES
        )
        normalized = os.path.normpath(path)
        self.is_engine_module = any(
            package in normalized for package in ENGINE_PACKAGES
        ) and not any(
            normalized.endswith(suffix) for suffix in SPINE_MODULES
        )
        # Names bound to repro.core.events classes / the module (CD007).
        self._event_names: Set[str] = set()
        self._event_modules: Set[str] = set()
        # Stack of (class node, is_guarded) for CD002.
        self._class_stack: List[Tuple[ast.ClassDef, bool]] = []
        self._function_stack: List[ast.AST] = []
        # Depth of enclosing `with <mutex>` blocks.
        self._guard_depth = 0

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def _emit(self, rule: Rule, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", None)
        if line in self.suppressed:
            codes = self.suppressed[line]
            if not codes or rule.code in codes:
                return
        self.findings.append(
            Finding(
                rule=rule,
                message=message,
                path=self.path,
                line=line,
            )
        )

    # ------------------------------------------------------------------
    # Structure tracking
    # ------------------------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        guarded = self._class_is_guarded(node)
        self._class_stack.append((node, guarded))
        self.generic_visit(node)
        self._class_stack.pop()

    @staticmethod
    def _class_is_guarded(node: ast.ClassDef) -> bool:
        """A class is guarded when its code mentions a mutex."""
        for child in ast.walk(node):
            if isinstance(child, ast.Attribute) and child.attr == "_mutex":
                return True
        return False

    def _visit_function(self, node) -> None:
        self._function_stack.append(node)
        saved = self._guard_depth
        self._guard_depth = 0
        self.generic_visit(node)
        self._guard_depth = saved
        self._function_stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_With(self, node: ast.With) -> None:
        guarding = any(
            self._mentions_guard(item.context_expr)
            for item in node.items
        )
        if guarding:
            self._guard_depth += 1
        self.generic_visit(node)
        if guarding:
            self._guard_depth -= 1

    @staticmethod
    def _mentions_guard(expression: ast.expr) -> bool:
        return any(
            isinstance(child, ast.Attribute)
            and child.attr == "_mutex"
            for child in ast.walk(expression)
        )

    # ------------------------------------------------------------------
    # CD001 / CD003 / CD004: mutations
    # ------------------------------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_mutation_target(node, target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_mutation_target(node, node.target)
        self.generic_visit(node)

    def _check_mutation_target(
        self, node: ast.AST, target: ast.expr
    ) -> None:
        # CD001: managed.write_holders = ... / managed.versions = ...
        if isinstance(target, ast.Attribute):
            receiver = target.value
            if target.attr in LOCK_STATE_ATTRS:
                if not _is_self(receiver):
                    self._emit(
                        CD001,
                        node,
                        "assignment to %r through a non-self receiver"
                        % target.attr,
                    )
                elif self._lock_mutation_forbidden():
                    self._emit(
                        CD005,
                        node,
                        "assignment to %r outside the lock-owner "
                        "modules" % target.attr,
                    )
            if target.attr in HOOK_ATTRS and (
                not _is_self(receiver) or self.is_engine_module
            ):
                self._emit(
                    CD007,
                    node,
                    "listener hook %r assigned; subscribe to the "
                    "engine's event spine instead" % target.attr,
                )
            if target.attr == "status" and not _is_self(receiver):
                if not self.is_transition_module:
                    self._emit(
                        CD003,
                        node,
                        "transaction status assigned outside the "
                        "engine transition modules",
                    )
        # CD001/CD004: managed.versions[k] = ... / engine.stats[k] += 1
        if isinstance(target, ast.Subscript):
            container = target.value
            if isinstance(container, ast.Attribute):
                receiver = container.value
                if container.attr in LOCK_STATE_ATTRS:
                    if not _is_self(receiver):
                        self._emit(
                            CD001,
                            node,
                            "item assignment on %r through a non-self "
                            "receiver" % container.attr,
                        )
                    elif self._lock_mutation_forbidden():
                        self._emit(
                            CD005,
                            node,
                            "item assignment on %r outside the "
                            "lock-owner modules" % container.attr,
                        )
                if (
                    container.attr == "stats"
                    and not _is_self(receiver)
                    and not self.is_transition_module
                ):
                    self._emit(
                        CD004,
                        node,
                        "engine stats mutated in place; use an engine "
                        "method instead",
                    )

    def visit_Call(self, node: ast.Call) -> None:
        function = node.func
        if self.is_engine_module and self._builds_model_event(function):
            self._emit(
                CD007,
                node,
                "model-alphabet event built in an engine package; emit "
                "a spine event and let the recorder expand it",
            )
        if (
            isinstance(function, ast.Attribute)
            and function.attr in MUTATING_METHODS
        ):
            owner = function.value
            # e.g. managed.write_holders.add(...): owner is the
            # attribute `managed.write_holders`.
            if isinstance(owner, ast.Attribute):
                if owner.attr in LOCK_STATE_ATTRS:
                    if not _is_self(owner.value):
                        self._emit(
                            CD001,
                            node,
                            "mutating call %s() on %r through a "
                            "non-self receiver"
                            % (function.attr, owner.attr),
                        )
                    elif self._lock_mutation_forbidden():
                        self._emit(
                            CD005,
                            node,
                            "mutating call %s() on %r outside the "
                            "lock-owner modules"
                            % (function.attr, owner.attr),
                        )
                if (
                    owner.attr == "stats"
                    and not _is_self(owner.value)
                    and not self.is_transition_module
                ):
                    self._emit(
                        CD004,
                        node,
                        "engine stats mutated in place; use an engine "
                        "method instead",
                    )
        self.generic_visit(node)

    def _builds_model_event(self, function: ast.expr) -> bool:
        if isinstance(function, ast.Name):
            return function.id in self._event_names
        return (
            isinstance(function, ast.Attribute)
            and isinstance(function.value, ast.Name)
            and function.value.id in self._event_modules
        )

    # ------------------------------------------------------------------
    # CD002: guarded internals; CD006: crc32; CD007: event imports
    # ------------------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == EVENTS_MODULE and alias.asname:
                self._event_modules.add(alias.asname)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "zlib" and not self.is_crc_module:
            for alias in node.names:
                if alias.name == "crc32":
                    self._emit(CD006, node, _CD006_MESSAGE)
        for alias in node.names:
            bound = alias.asname or alias.name
            if node.module == EVENTS_MODULE:
                self._event_names.add(bound)
            elif node.module == "repro.core" and alias.name == "events":
                self._event_modules.add(bound)
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr == "crc32" and not self.is_crc_module:
            self._emit(CD006, node, _CD006_MESSAGE)
        if self._class_stack and self._class_stack[-1][1]:
            inner = node.value
            if (
                isinstance(inner, ast.Attribute)
                and inner.attr in ("_engine", "_inner")
                and _is_self(inner.value)
                and self._guard_depth == 0
                and self._in_checked_method()
            ):
                self._emit(
                    CD002,
                    node,
                    "access to self.%s.%s outside a `with` over the "
                    "mutex/condition" % (inner.attr, node.attr),
                )
        self.generic_visit(node)

    def _in_checked_method(self) -> bool:
        if not self._function_stack:
            return False
        current = self._function_stack[-1]
        name = getattr(current, "name", "")
        return name != "__init__"

    def _lock_mutation_forbidden(self) -> bool:
        """CD005 applies: self-mutation of lock state, wrong module.

        ``__init__`` is exempt -- constructing your own (empty) table
        is initialization, not a lock-table transition.
        """
        return not self.is_lock_owner_module and self._in_checked_method()


def lint_source(path: str, source: str) -> List[Finding]:
    """Lint one module's source text; returns its findings."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                rule=CD000,
                message="could not parse: %s" % exc,
                path=path,
                line=exc.lineno,
            )
        ]
    linter = _ModuleLinter(path, tree, source)
    linter.visit(tree)
    linter.findings.sort(key=lambda f: (f.line or 0, f.rule.code))
    return linter.findings


def iter_python_files(paths: Iterable[str]) -> Iterable[str]:
    """Expand files and directories into .py file paths, sorted.

    Raises :class:`FileNotFoundError` for a path that does not exist,
    so a typo cannot silently lint nothing.
    """
    seen: Set[str] = set()
    for path in paths:
        if not os.path.exists(path):
            raise FileNotFoundError("no such file or directory: %r" % path)
        if os.path.isdir(path):
            for root, directories, files in os.walk(path):
                directories[:] = sorted(
                    d
                    for d in directories
                    if d not in ("__pycache__", ".git")
                    and not d.endswith(".egg-info")
                )
                for name in sorted(files):
                    if name.endswith(".py"):
                        seen.add(os.path.join(root, name))
        elif path.endswith(".py"):
            seen.add(path)
    return sorted(seen)


def lint_paths(paths: Sequence[str]) -> AnalysisReport:
    """Run the code lint over files/directories; return the report."""
    report = AnalysisReport(subject="code")
    for file_path in iter_python_files(paths):
        with open(file_path, "r", encoding="utf-8") as handle:
            source = handle.read()
        report.findings.extend(lint_source(file_path, source))
    return report
