"""ORD -- emit-ordering rules over the observation bus.

The DSN'04 reproduction is only as trustworthy as its traces: monitors
(victim detection, startup timing, runner health) reconstruct protocol
state purely from emitted events.  Two trace lies survive every unit
test that inspects state directly:

======== ==============================================================
ORD001   a controller mutates ``self.<attr>`` and reports it through
         ``_emit(...)`` -- but the emit does not *post-dominate* the
         mutation, so an early return or exception path changes state
         without telling the trace
ORD002   an event kind is constructed somewhere in the universe but
         nothing reads it: no ``kind`` comparison, membership test or
         ``kind=`` query outside the taxonomy and the linter names it,
         directly or through a module or class-attribute constant.
         Either dead telemetry or a consumer wired to the wrong kind
         string
======== ==============================================================

ORD001 is flow-sensitive (CFG postdominators); ORD002 is the one
universe-scope rule -- it runs once per lint run and may report into
any file, at the lexicographically first construction site of each
unconsumed kind.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.staticcheck.dataflow import reference_key
from repro.staticcheck.findings import Finding
from repro.staticcheck.framework import AstRule, ModuleUnit, terminal_name

_EMIT_NAMES = frozenset({"_emit", "emit"})

#: Wrappers whose single literal argument is still a constant string set.
_SET_BUILDERS = frozenset({"frozenset", "set", "tuple", "list"})


def _reads_kinds(unit: ModuleUnit) -> bool:
    """Whether ``unit``'s kind comparisons count as consumption: the
    taxonomy declares kinds and the linter inspects them, neither reads
    the stream.  (Matched on ``repro/staticcheck/`` so that the linter's
    test fixtures still count.)"""
    path = "/" + unit.rel_path
    return not (path.endswith("/obs/events.py")
                or "/repro/staticcheck/" in path)


def _is_emit_call(node: ast.AST) -> bool:
    """ORD001 counts only the ``self._emit`` reporting idiom -- a bus
    ``monitor.emit(...)`` call forwards an already-built event and does
    not claim to *report* the attributes its payload happens to read."""
    return isinstance(node, ast.Call) and \
        terminal_name(node.func) == "_emit"


def _self_attrs_read(node: ast.AST) -> Set[str]:
    """``self.X`` attribute names read anywhere under ``node``."""
    attrs: Set[str] = set()
    for sub in ast.walk(node):
        key = reference_key(sub)
        if key is not None and key.startswith("self."):
            attrs.add(key[len("self."):])
    return attrs


class EmitPostdominatesMutationRule(AstRule):
    """ORD001: the _emit that reports a mutation must post-dominate it."""

    rule = "ORD001"
    description = ("every self-attribute mutation that an _emit call "
                   "reports must be post-dominated by such an emit; "
                   "otherwise early-return paths mutate state silently")

    def check(self, unit: ModuleUnit, context) -> Iterator[Finding]:
        if "_emit" not in unit.source and "emit(" not in unit.source:
            return
        for function in context.functions(unit):
            cfg = context.cfg(function)
            # Emit statements and the self-attrs their payloads read.
            emits: List[Tuple[ast.stmt, Set[str]]] = []
            for stmt in cfg.statements():
                reads: Set[str] = set()
                for node in ast.walk(stmt):
                    if _is_emit_call(node):
                        for part in [*node.args, *node.keywords]:
                            value = part.value if isinstance(
                                part, ast.keyword) else part
                            reads |= _self_attrs_read(value)
                if reads:
                    emits.append((stmt, reads))
            if not emits:
                continue
            reported = set().union(*[reads for _, reads in emits])
            for stmt in cfg.statements():
                if not isinstance(stmt, (ast.Assign, ast.AugAssign,
                                         ast.AnnAssign)):
                    continue
                targets = stmt.targets if isinstance(stmt, ast.Assign) \
                    else [stmt.target]
                for target in targets:
                    key = reference_key(target)
                    if key is None or not key.startswith("self."):
                        continue
                    attr = key[len("self."):]
                    if attr not in reported:
                        continue  # nothing ever reports this attribute
                    covered = any(
                        attr in reads and cfg.postdominates(emit_stmt, stmt)
                        for emit_stmt, reads in emits
                        if emit_stmt is not stmt)
                    if not covered:
                        yield self.finding(
                            unit, stmt,
                            f"mutation of self.{attr} is reported by an "
                            f"_emit in this function, but no such emit "
                            f"post-dominates the mutation: an early "
                            f"return or exception path changes state "
                            f"without a trace event")


class _KindUniverse:
    """Constructed and consumed event-kind sets over the whole universe."""

    def __init__(self, context) -> None:
        self.context = context
        #: event class name -> kind string (from `kind = "..."` class attrs).
        self.class_kinds: Dict[str, str] = {}
        #: module -> {module or class-attribute constant name -> strings}.
        self.module_consts: Dict[int, Dict[str, Tuple[str, ...]]] = {}
        for unit in context.units:
            self._collect_classes(unit)
            self._collect_consts(unit)
        #: kind -> first (path, line, unit, node) construction site.
        self.constructed: Dict[str, Tuple[str, int, ModuleUnit]] = {}
        for unit in context.units:
            self._collect_constructions(unit)
        self.consumed: Set[str] = self._collect_consumptions()

    # -- pass 1: the taxonomy ------------------------------------------------------

    def _collect_classes(self, unit: ModuleUnit) -> None:
        for node in ast.walk(unit.tree):
            if isinstance(node, ast.ClassDef):
                kind = self._class_kind(node)
                if kind is not None:
                    self.class_kinds[node.name] = kind

    @staticmethod
    def _class_kind(node: ast.ClassDef) -> Optional[str]:
        """The string constant of the class's ``kind`` attribute, if any."""
        for stmt in node.body:
            value = None
            if isinstance(stmt, ast.Assign) and \
                    len(stmt.targets) == 1 and \
                    isinstance(stmt.targets[0], ast.Name) and \
                    stmt.targets[0].id == "kind":
                value = stmt.value
            elif isinstance(stmt, ast.AnnAssign) and \
                    isinstance(stmt.target, ast.Name) and \
                    stmt.target.id == "kind":
                value = stmt.value
            if isinstance(value, ast.Constant) and \
                    isinstance(value.value, str):
                return value.value
        return None

    def _collect_consts(self, unit: ModuleUnit) -> None:
        consts: Dict[str, Tuple[str, ...]] = {}
        statements = list(unit.tree.body)
        for stmt in unit.tree.body:
            if isinstance(stmt, ast.ClassDef):
                statements.extend(stmt.body)
        for stmt in statements:
            if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
                continue
            target = stmt.targets[0]
            if not isinstance(target, ast.Name):
                continue
            strings = self._string_values(stmt.value)
            if strings:
                consts[target.id] = strings
        self.module_consts[id(unit)] = consts

    @staticmethod
    def _string_values(node: ast.AST) -> Tuple[str, ...]:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return (node.value,)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            values = []
            for element in node.elts:
                if isinstance(element, ast.Constant) and \
                        isinstance(element.value, str):
                    values.append(element.value)
                else:
                    return ()
            return tuple(values)
        if isinstance(node, ast.Call) and len(node.args) == 1 and \
                terminal_name(node.func) in _SET_BUILDERS:
            return _KindUniverse._string_values(node.args[0])
        return ()

    # -- pass 2: constructions -----------------------------------------------------

    def _record(self, kind: str, unit: ModuleUnit, node: ast.AST) -> None:
        site = (unit.rel_path, getattr(node, "lineno", 0), unit)
        known = self.constructed.get(kind)
        if known is None or site[:2] < known[:2]:
            self.constructed[kind] = site

    def _collect_constructions(self, unit: ModuleUnit) -> None:
        if unit.basename() in ("events.py", "monitors.py"):
            return  # the taxonomy and its consumers don't *construct* traffic
        # A kind-less class defined in this module shadows a taxonomy
        # class of the same bare name (the engine's scheduler ``Event``
        # is not the typed ``obs.events.Event``).
        shadowed = {node.name for node in ast.walk(unit.tree)
                    if isinstance(node, ast.ClassDef)
                    and self._class_kind(node) is None}

        def kind_of(target: ast.AST) -> Optional[str]:
            if isinstance(target, ast.Name) and target.id in shadowed:
                return None
            return self.class_kinds.get(terminal_name(target))

        for node in ast.walk(unit.tree):
            if not isinstance(node, ast.Call):
                continue
            name = terminal_name(node.func)
            # Direct construction: TaskStarted(...), ev.StateChange inside
            # _emit(...), or _emit(ev.StateChange, field=...) class-style.
            kind = kind_of(node.func)
            if kind is not None:
                self._record(kind, unit, node)
            if name in _EMIT_NAMES and node.args:
                kind = kind_of(node.args[0])
                if kind is not None:
                    self._record(kind, unit, node.args[0])

    # -- pass 3: consumption ---------------------------------------------------------

    def _collect_consumptions(self) -> Set[str]:
        consumed: Set[str] = set()
        for unit in self.context.units:
            if not _reads_kinds(unit):
                continue
            consts = self.module_consts.get(id(unit), {})
            for node in ast.walk(unit.tree):
                if isinstance(node, ast.Compare):
                    parts = [node.left, *node.comparators]
                    if any(terminal_name(part) == "kind" for part in parts):
                        for part in parts:
                            consumed |= set(self._resolve(consts, part))
                elif isinstance(node, ast.Call):
                    for keyword in node.keywords:
                        if keyword.arg == "kind":
                            consumed |= set(self._resolve(consts,
                                                          keyword.value))
        return consumed

    def _resolve(self, consts: Dict[str, Tuple[str, ...]],
                 node: ast.AST) -> Tuple[str, ...]:
        strings = self._string_values(node)
        if strings:
            return strings
        if isinstance(node, ast.Name):
            return consts.get(node.id, ())
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            return consts.get(node.attr, ())  # self.KINDS, Monitor.KINDS
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            values: List[str] = []
            for element in node.elts:
                values.extend(self._resolve(consts, element))
            return tuple(values)
        return ()


class UnconsumedEventKindRule(AstRule):
    """ORD002: every constructed event kind needs a consumer."""

    rule = "ORD002"
    description = ("every constructed event kind must be read somewhere "
                   "(a kind comparison, membership test or kind= query "
                   "outside the taxonomy and the linter); unconsumed "
                   "kinds are dead telemetry or a mis-wired kind string")
    severity = "warning"
    scope = "universe"

    def check_universe(self, context) -> Iterator[Finding]:
        universe = _KindUniverse(context)
        if not universe.consumed:
            # No consumer in the analyzed universe (e.g. a single-file
            # lint): nothing meaningful to compare against.
            return
        for kind in sorted(universe.constructed):
            if kind in universe.consumed:
                continue
            path, line, unit = universe.constructed[kind]
            yield Finding(
                rule=self.rule, path=path, line=line, column=0,
                severity=self.severity,
                message=(f"event kind {kind!r} is constructed here but "
                         f"nothing ever reads it; consume it or delete it "
                         f"with its emit sites"),
                item=f"kind:{kind}")


ORD_RULES = (EmitPostdominatesMutationRule, UnconsumedEventKindRule)
