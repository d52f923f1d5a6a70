"""Repo-wide call graph with module-attribute resolution.

Built once per lint run over every parsed :class:`ModuleUnit`, the graph
records every defined function (with whether it is nested in another
function) and answers *resolution*: which defined function does this
callable expression name?  Handled forms: bare names (same module, a
function nested in the enclosing one, or ``from mod import f``),
import-alias attributes (``import pkg.mod as m; m.f()``), fully dotted
module paths (``pkg.mod.f()``), ``self.method()`` within a class, and
``ClassName(...)`` construction (resolving to ``Class.__init__`` when
defined).  Anything outside the analyzed universe (stdlib, numpy)
resolves to ``None``.

Function keys are ``"<module>:<qualname>"`` (``repro.exec.runner:
TaskRunner.map``); modules are derived from repo-relative
paths (``src/`` stripped, ``__init__`` collapsed to the package).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Tuple

from repro.staticcheck.framework import ModuleUnit, dotted_name


def module_name(rel_path: str) -> str:
    """Dotted module name of a repo-relative posix path."""
    parts = rel_path.split("/")
    if parts and parts[0] in ("src", "lib"):
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(part for part in parts if part)


class FunctionInfo:
    """One defined function or method in the analyzed universe."""

    __slots__ = ("key", "node", "unit", "module", "qualname", "class_name",
                 "nested")

    def __init__(self, key: str, node: ast.AST, unit: ModuleUnit,
                 module: str, qualname: str, class_name: Optional[str],
                 nested: bool) -> None:
        self.key = key
        self.node = node
        self.unit = unit
        self.module = module
        self.qualname = qualname
        self.class_name = class_name
        self.nested = nested


class _ModuleScope:
    """Name bindings visible at one module's top level."""

    def __init__(self, module: str) -> None:
        self.module = module
        #: local alias -> imported dotted module path.
        self.import_aliases: Dict[str, str] = {}
        #: local name -> (source module, attribute).
        self.from_imports: Dict[str, Tuple[str, str]] = {}
        #: module-level function name -> key.
        self.functions: Dict[str, str] = {}
        #: class name -> {method name -> key}.
        self.classes: Dict[str, Dict[str, str]] = {}

    def package(self) -> str:
        return self.module.rsplit(".", 1)[0] if "." in self.module else ""


class CallGraph:
    """Defined functions and call-expression resolution over them."""

    def __init__(self, units: Iterable[ModuleUnit]) -> None:
        self.functions: Dict[str, FunctionInfo] = {}
        self._scopes: Dict[str, _ModuleScope] = {}
        #: id(function node) -> key, for rules iterating AST nodes.
        self._key_of_node: Dict[int, str] = {}
        for unit in units:
            self._collect(unit)

    # -- definitions and imports ------------------------------------------------

    def _collect(self, unit: ModuleUnit) -> None:
        module = module_name(unit.rel_path)
        scope = _ModuleScope(module)
        self._scopes[module] = scope
        self._collect_defs(unit, module, scope, unit.tree.body,
                           prefix="", class_name=None, nested=False)
        for node in ast.walk(unit.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else \
                        alias.name.split(".")[0]
                    scope.import_aliases[local] = target
                    if alias.asname is None and "." in alias.name:
                        # `import a.b.c` binds `a`, but the dotted chain
                        # a.b.c.f is resolvable; remember the full path too.
                        scope.import_aliases.setdefault(alias.name, alias.name)
            elif isinstance(node, ast.ImportFrom):
                source = node.module or ""
                if node.level:
                    base = module.split(".")
                    # level 1 = current package; each extra level ascends.
                    base = base[:len(base) - node.level]
                    source = ".".join(base + ([source] if source else []))
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    scope.from_imports[local] = (source, alias.name)

    def _collect_defs(self, unit: ModuleUnit, module: str, scope: _ModuleScope,
                      body: List[ast.stmt], prefix: str,
                      class_name: Optional[str], nested: bool) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + stmt.name
                key = f"{module}:{qualname}"
                info = FunctionInfo(key, stmt, unit, module, qualname,
                                    class_name, nested)
                self.functions[key] = info
                self._key_of_node[id(stmt)] = key
                if not nested and class_name is None:
                    scope.functions[stmt.name] = key
                if class_name is not None and not nested:
                    scope.classes.setdefault(class_name, {})[stmt.name] = key
                self._collect_defs(unit, module, scope, stmt.body,
                                   prefix=qualname + ".", class_name=None,
                                   nested=True)
            elif isinstance(stmt, ast.ClassDef):
                scope.classes.setdefault(stmt.name, {})
                self._collect_defs(unit, module, scope, stmt.body,
                                   prefix=prefix + stmt.name + ".",
                                   class_name=stmt.name, nested=nested)

    # -- resolution ----------------------------------------------------------------

    def key_of(self, function_node: ast.AST) -> Optional[str]:
        return self._key_of_node.get(id(function_node))

    def resolve_callable(self, unit: ModuleUnit, func: ast.AST,
                         enclosing: Optional[FunctionInfo] = None
                         ) -> Optional[str]:
        """Key of the defined function a callable expression names."""
        module = module_name(unit.rel_path)
        scope = self._scopes.get(module)
        if scope is None:
            return None
        if isinstance(func, ast.Name):
            return self._resolve_name(scope, func.id, enclosing)
        dotted = dotted_name(func)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        # self.method() inside a class body.
        if head == "self" and enclosing is not None \
                and enclosing.class_name is not None and rest and \
                "." not in rest:
            methods = scope.classes.get(enclosing.class_name, {})
            return methods.get(rest)
        # alias.attr... via `import pkg.mod as alias` / `from pkg import mod`.
        candidates: List[str] = []
        if head in scope.import_aliases:
            candidates.append(scope.import_aliases[head]
                              + (("." + rest) if rest else ""))
        if head in scope.from_imports:
            source, attr = scope.from_imports[head]
            candidates.append(f"{source}.{attr}" + (("." + rest) if rest else ""))
        candidates.append(dotted)  # fully dotted module path spelled out
        for candidate in candidates:
            resolved = self._resolve_dotted(candidate)
            if resolved is not None:
                return resolved
        return None

    def _resolve_name(self, scope: _ModuleScope, name: str,
                      enclosing: Optional[FunctionInfo]) -> Optional[str]:
        # Nested function defined in the enclosing function.
        if enclosing is not None:
            nested_key = f"{enclosing.module}:{enclosing.qualname}.{name}"
            if nested_key in self.functions:
                return nested_key
        if name in scope.functions:
            return scope.functions[name]
        if name in scope.classes:
            return scope.classes[name].get("__init__")
        if name in scope.from_imports:
            source, attr = scope.from_imports[name]
            return self._resolve_dotted(f"{source}.{attr}")
        return None

    def _resolve_dotted(self, dotted: str) -> Optional[str]:
        """``pkg.mod.func`` / ``pkg.mod.Class`` -> function key, by longest
        module-prefix match (the "module-attribute resolution")."""
        parts = dotted.split(".")
        for split in range(len(parts) - 1, 0, -1):
            candidate_module = ".".join(parts[:split])
            scope = self._scopes.get(candidate_module)
            if scope is None:
                continue
            remainder = parts[split:]
            if len(remainder) == 1:
                name = remainder[0]
                if name in scope.functions:
                    return scope.functions[name]
                if name in scope.classes:
                    return scope.classes[name].get("__init__")
                if name in scope.from_imports:  # re-export chain, one hop
                    source, attr = scope.from_imports[name]
                    return self._resolve_dotted(f"{source}.{attr}")
            elif len(remainder) == 2 and remainder[0] in scope.classes:
                return scope.classes[remainder[0]].get(remainder[1])
            return None
        return None
