"""EVT -- the event-taxonomy closure checker.

The event spine (:mod:`repro.obs.events`) promises a *closed* vocabulary:
every kind is a dataclass declared there and only there, and every
consumer can rely on that vocabulary being complete.  These rules prove
the promise statically, against the real taxonomy (imported, not
hard-coded, so adding an event kind never requires touching the linter):

======== ==============================================================
EVT001   ``_emit`` call sites name a declared event class and pass only
         its declared detail fields
EVT003   monitor modules consume declared kinds only (comparisons,
         membership tests, and ``select``/``first``/``count`` queries)
======== ==============================================================

The run-time counterparts are :func:`repro.obs.events.fill_event` and
:func:`repro.obs.events.event_from_dict`, which refuse an undeclared
detail (and the importer an undeclared kind) when the event is built.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Dict, FrozenSet, Iterator, Optional, Tuple

from repro.staticcheck.findings import Finding
from repro.staticcheck.framework import AstRule, ModuleUnit, terminal_name

def _load_taxonomy() -> Tuple[Dict[str, FrozenSet[str]], Dict[str, str]]:
    """(event class name -> detail fields, kind string -> class name)."""
    from repro.obs import events

    class_fields: Dict[str, FrozenSet[str]] = {}
    kind_to_class: Dict[str, str] = {}
    for kind, cls in events.EVENT_TYPES.items():
        detail = frozenset(entry.name for entry in dataclasses.fields(cls)
                           if entry.name not in ("time", "source"))
        class_fields[cls.__name__] = detail
        kind_to_class[kind] = cls.__name__
    return class_fields, kind_to_class


_CACHE: Optional[Tuple[Dict[str, FrozenSet[str]], Dict[str, str]]] = None


def taxonomy() -> Tuple[Dict[str, FrozenSet[str]], Dict[str, str]]:
    global _CACHE
    if _CACHE is None:
        _CACHE = _load_taxonomy()
    return _CACHE


class EmitSiteRule(AstRule):
    """EVT001: every ``_emit(EventClass, **details)`` site is well-typed."""

    rule = "EVT001"
    description = ("_emit call sites must name an event class declared in "
                   "obs/events.py and pass only its declared detail fields")

    def check(self, unit: ModuleUnit, context) -> Iterator[Finding]:
        class_fields, _ = taxonomy()
        for node in ast.walk(unit.tree):
            if not isinstance(node, ast.Call):
                continue
            if terminal_name(node.func) != "_emit":
                continue
            if not node.args:
                continue
            class_name = terminal_name(node.args[0])
            if class_name is None:
                continue  # dynamic class argument: not statically checkable
            if class_name not in class_fields:
                yield self.finding(
                    unit, node,
                    f"_emit names {class_name}, which is not an event class "
                    f"declared in obs/events.py")
                continue
            declared = class_fields[class_name]
            for keyword in node.keywords:
                if keyword.arg is None:
                    yield self.finding(
                        unit, node,
                        f"_emit({class_name}, **...) unpacking defeats the "
                        f"static detail-field check; pass fields explicitly")
                elif keyword.arg not in declared:
                    yield self.finding(
                        unit, node,
                        f"_emit({class_name}) passes undeclared detail field "
                        f"{keyword.arg!r}; declared fields are "
                        f"{sorted(declared)}")


class MonitorKindRule(AstRule):
    """EVT003: monitors subscribe to (= dispatch on) declared kinds only."""

    rule = "EVT003"
    description = ("monitor modules must compare/query event kinds that are "
                   "declared in obs/events.py")

    #: Query methods whose first positional argument is an event kind.
    KIND_QUERIES = ("first", "count", "kind_count")

    def applies_to(self, unit: ModuleUnit) -> bool:
        return "monitors" in unit.basename()

    @staticmethod
    def _is_kind_expr(node: ast.AST) -> bool:
        return (isinstance(node, ast.Attribute) and node.attr == "kind") or (
            isinstance(node, ast.Name) and node.id == "kind")

    def _literal_values(self, node: ast.AST) -> Iterator[Tuple[str, ast.AST]]:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node
        elif isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            for element in node.elts:
                yield from self._literal_values(element)
        elif isinstance(node, ast.Call) and terminal_name(node.func) in (
                "frozenset", "set", "tuple", "list"):
            for argument in node.args:
                yield from self._literal_values(argument)

    def check(self, unit: ModuleUnit, context) -> Iterator[Finding]:
        _, kind_to_class = taxonomy()

        def verify(kind: str, node: ast.AST) -> Iterator[Finding]:
            if kind not in kind_to_class:
                yield self.finding(
                    unit, node,
                    f"monitor consumes undeclared event kind {kind!r}; "
                    f"the closed taxonomy in obs/events.py does not emit it")

        for node in ast.walk(unit.tree):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                if not any(self._is_kind_expr(op) for op in operands):
                    continue
                comparable = any(isinstance(op, (ast.Eq, ast.NotEq, ast.In,
                                                 ast.NotIn))
                                 for op in node.ops)
                if not comparable:
                    continue
                for operand in operands:
                    if self._is_kind_expr(operand):
                        continue
                    for kind, literal_node in self._literal_values(operand):
                        yield from verify(kind, literal_node)
            elif isinstance(node, ast.Call):
                callee = terminal_name(node.func)
                if callee in self.KIND_QUERIES and node.args:
                    for kind, literal_node in self._literal_values(node.args[0]):
                        yield from verify(kind, literal_node)
                for keyword in node.keywords:
                    if keyword.arg == "kind":
                        for kind, literal_node in self._literal_values(
                                keyword.value):
                            yield from verify(kind, literal_node)


EVT_RULES = (EmitSiteRule, MonitorKindRule)
