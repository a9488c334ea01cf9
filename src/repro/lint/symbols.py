"""Project-wide symbol table and call graph.

The per-file rules in :mod:`repro.lint.rules` see one module at a time;
the protocol-conformance passes (:mod:`repro.lint.msgflow`,
:mod:`repro.lint.taint`) need to see all of ``src/repro`` as *one
program*: which class defines which method, which
helper a ``self._slot(...)`` call lands in, and where a message class
constructed in one module is dispatched in another.

:class:`ProjectIndex` is that view.  It is built once per lint run from
the already-parsed file contexts, and deliberately stays *syntactic*:
resolution follows the same precise-over-complete philosophy as the
rules — a ``self.m()`` call resolves through the lexical class hierarchy
(by base-class simple name within the project), a bare ``f()`` call
resolves to a module-level function of the same module, and anything
else (``self._owner.m()``, library calls) resolves to nothing rather
than to a guess.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

__all__ = [
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
    "ProjectIndex",
    "build_index",
]


class CallSite:
    """One call expression inside a function body."""

    __slots__ = ("name", "kind", "lineno", "node")

    def __init__(self, name: str, kind: str, lineno: int,
                 node: ast.Call) -> None:
        #: Trailing identifier of the callee (``a.b.c()`` -> ``c``).
        self.name = name
        #: ``"self"`` for ``self.m()``, ``"bare"`` for ``f()``,
        #: ``"attr"`` for any longer attribute chain (``self._owner.m()``).
        self.kind = kind
        self.lineno = lineno
        self.node = node


class FunctionInfo:
    """One function or method definition."""

    __slots__ = ("path", "qualname", "name", "class_name", "node",
                 "lineno", "calls")

    def __init__(self, path: str, qualname: str, name: str,
                 class_name: Optional[str], node: ast.FunctionDef) -> None:
        #: Normalized forward-slash path of the defining module.
        self.path = path
        #: ``Class.method`` or bare function name (matches the
        #: ``Finding.symbol`` convention used by the allowlist).
        self.qualname = qualname
        self.name = name
        self.class_name = class_name
        self.node = node
        self.lineno = node.lineno
        self.calls: List[CallSite] = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FunctionInfo {self.path}::{self.qualname}>"


class ClassInfo:
    """One class definition with its direct methods and base names."""

    __slots__ = ("path", "name", "bases", "methods", "node")

    def __init__(self, path: str, name: str, bases: Tuple[str, ...],
                 node: ast.ClassDef) -> None:
        self.path = path
        self.name = name
        #: Simple names of the declared bases (``BaseReplica``, not the
        #: full dotted path) — resolved against the project by name.
        self.bases = bases
        self.node = node
        self.methods: Dict[str, FunctionInfo] = {}


class ModuleInfo:
    """One parsed module."""

    __slots__ = ("path", "tree", "classes", "functions")

    def __init__(self, path: str, tree: ast.Module) -> None:
        self.path = path
        self.tree = tree
        #: Classes defined at module level, in definition order.
        self.classes: Dict[str, ClassInfo] = {}
        #: Module-level functions, in definition order.
        self.functions: Dict[str, FunctionInfo] = {}


def _call_site(node: ast.Call) -> Optional[CallSite]:
    func = node.func
    if isinstance(func, ast.Name):
        return CallSite(func.id, "bare", node.lineno, node)
    if isinstance(func, ast.Attribute):
        value = func.value
        if isinstance(value, ast.Name) and value.id == "self":
            return CallSite(func.attr, "self", node.lineno, node)
        return CallSite(func.attr, "attr", node.lineno, node)
    return None


def _collect_calls(fn: FunctionInfo) -> None:
    for node in ast.walk(fn.node):
        if isinstance(node, ast.Call):
            site = _call_site(node)
            if site is not None:
                fn.calls.append(site)


def _base_name(base: ast.expr) -> Optional[str]:
    if isinstance(base, ast.Name):
        return base.id
    if isinstance(base, ast.Attribute):
        return base.attr
    if isinstance(base, ast.Subscript):  # Generic[...] style bases
        return _base_name(base.value)
    return None


class ProjectIndex:
    """Whole-program symbol table over a set of parsed modules."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        #: Class simple name -> definitions (definition order; protocol
        #: code never reuses a class name, but we keep all of them).
        self.classes: Dict[str, List[ClassInfo]] = {}
        #: ``(path, qualname)`` -> function.
        self.functions: Dict[Tuple[str, str], FunctionInfo] = {}
        #: Every identifier that appears in a *load* position anywhere
        #: in the project (names and attribute accesses).  A function
        #: whose name never appears here is unreachable.
        self.referenced_names: Set[str] = set()

    # -- construction --------------------------------------------------
    def add_module(self, path: str, tree: ast.Module) -> None:
        module = ModuleInfo(path, tree)
        self.modules[path] = module
        for stmt in tree.body:
            if isinstance(stmt, ast.ClassDef):
                bases = tuple(
                    name for name in
                    (_base_name(base) for base in stmt.bases)
                    if name is not None
                )
                cls = ClassInfo(path, stmt.name, bases, stmt)
                module.classes[stmt.name] = cls
                self.classes.setdefault(stmt.name, []).append(cls)
                for sub in stmt.body:
                    if isinstance(sub, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                        fn = FunctionInfo(path, f"{stmt.name}.{sub.name}",
                                          sub.name, stmt.name, sub)
                        cls.methods[sub.name] = fn
                        self.functions[(path, fn.qualname)] = fn
                        _collect_calls(fn)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = FunctionInfo(path, stmt.name, stmt.name, None, stmt)
                module.functions[stmt.name] = fn
                self.functions[(path, stmt.name)] = fn
                _collect_calls(fn)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                self.referenced_names.add(node.attr)
            elif isinstance(node, ast.Name) and isinstance(node.ctx,
                                                           ast.Load):
                self.referenced_names.add(node.id)

    # -- queries -------------------------------------------------------
    def modules_matching(self, suffixes: Iterable[str]) -> List[ModuleInfo]:
        """Modules whose normalized path ends with one of ``suffixes``,
        in sorted path order."""
        wanted = tuple(suffixes)
        return [self.modules[path] for path in sorted(self.modules)
                if any(path.endswith(suffix) for suffix in wanted)]

    def class_of(self, fn: FunctionInfo) -> Optional[ClassInfo]:
        if fn.class_name is None:
            return None
        module = self.modules.get(fn.path)
        if module is not None and fn.class_name in module.classes:
            return module.classes[fn.class_name]
        return None

    def resolve_self_call(self, caller: FunctionInfo,
                          method: str) -> Optional[FunctionInfo]:
        """``self.method()`` inside ``caller`` -> the method definition,
        following lexical bases by simple name within the project."""
        cls = self.class_of(caller)
        seen: Set[str] = set()
        while cls is not None:
            if method in cls.methods:
                return cls.methods[method]
            seen.add(cls.name)
            parent: Optional[ClassInfo] = None
            for base in cls.bases:
                if base in seen:
                    continue
                candidates = self.classes.get(base)
                if candidates:
                    parent = candidates[0]
                    break
            cls = parent
        return None

    def resolve_bare_call(self, caller: FunctionInfo,
                          name: str) -> Optional[FunctionInfo]:
        """``name()`` inside ``caller`` -> a module-level function of the
        same module, if one exists."""
        module = self.modules.get(caller.path)
        if module is not None:
            return module.functions.get(name)
        return None

    def iter_functions(self, suffixes: Iterable[str]
                       ) -> Iterable[FunctionInfo]:
        """All functions of the modules matching ``suffixes``, in
        (path, line) order."""
        for module in self.modules_matching(suffixes):
            infos = [fn for (path, _), fn in self.functions.items()
                     if path == module.path]
            for fn in sorted(infos, key=lambda f: f.lineno):
                yield fn


def build_index(files: Iterable[Tuple[str, ast.Module]]) -> ProjectIndex:
    """Build a :class:`ProjectIndex` from ``(norm_path, tree)`` pairs."""
    index = ProjectIndex()
    for path, tree in files:
        index.add_module(path, tree)
    return index
