"""WID -- packed-width rules over the uint64 split-code kernels.

The vectorized engine (PR 4) packs whole cluster states into 63-bit
uint64 words: ``word = sum_i local_i * block_radix**i`` with an int64
tail for the overflow digits.  Silent width bugs in that scheme have two
shapes, both invisible to a per-file linter:

======== ==============================================================
WID001   geometry-derived growth arithmetic (``block_radix ** i``,
         pre-scaled option pools) flows into a ``dtype=np.uint64``
         construction with no dominating 63-bit guard on any path
WID003   comparisons across the split-code dtypes (uint64 word vs int64
         tail), which numpy routes through float64
======== ==============================================================

Mixed uint64/int64 *arithmetic* promotes to float64 as well, but it
changes the result's dtype, which the model-checking tests see; a mixed
comparison returns the same bool array either way, so only this rule
sees it.

Dtype tags propagate through the forward dataflow lattice; the guard
test for WID001 uses CFG dominance ("does a ``> (1 << 63)`` check run
on every path reaching the sink?"), mirroring the real guard at
``PackedStepTable.__init__``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional

from repro.staticcheck.dataflow import (
    BOTTOM,
    AbstractValue,
    assignment_keys,
    environments_before,
    reference_key,
)
from repro.staticcheck.cfg import own_nodes
from repro.staticcheck.findings import Finding
from repro.staticcheck.framework import AstRule, ModuleUnit, terminal_name

TAG_GEOM = "geometry"      #: value derived from packed-layout geometry
TAG_WIDE = "wide"          #: geometry fed through growth arithmetic
TAG_U64 = "uint64"
TAG_I64 = "int64"

#: Names that denote packed-layout geometry wherever they appear.
_GEOMETRY_NAMES = frozenset({
    "block_radix", "tail_radix", "tail_scale", "radix", "radices",
    "multiplier", "multipliers", "scale", "scales"})

#: Calls returning geometry tuples.
_GEOMETRY_CALLS = frozenset({"packed_geometry", "digit_geometry"})

#: numpy array constructors accepting a dtype keyword.
_NP_CONSTRUCTORS = frozenset({"array", "asarray", "zeros", "empty", "full",
                              "arange", "ones"})

#: Operators under which geometry *grows* toward the 63-bit boundary.
_GROWTH_OPS = (ast.Pow, ast.Mult, ast.LShift)

_WIDTH_LIMIT = 1 << 63


def _is_width_literal(node: ast.AST) -> bool:
    """``2**63`` in any of its spellings: literal, ``1 << 63``, ``2 ** 63``."""
    if isinstance(node, ast.Constant):
        return node.value == _WIDTH_LIMIT
    if isinstance(node, ast.BinOp) and \
            isinstance(node.left, ast.Constant) and \
            isinstance(node.right, ast.Constant):
        if isinstance(node.op, ast.LShift):
            return node.left.value == 1 and node.right.value == 63
        if isinstance(node.op, ast.Pow):
            return node.left.value == 2 and node.right.value == 63
    return False


def _is_width_guard(stmt: ast.stmt) -> bool:
    """Whether a statement compares something against the 63-bit limit."""
    for node in own_nodes(stmt):
        if not isinstance(node, ast.Compare):
            continue
        for part in [node.left, *node.comparators]:
            for sub in ast.walk(part):
                if _is_width_literal(sub):
                    return True
    return False


def _dtype_tag(node: ast.AST) -> Optional[str]:
    """uint64/int64 of a ``dtype=`` expression (``np.uint64`` etc.)."""
    name = terminal_name(node)
    if name in ("uint64", "uint"):
        return TAG_U64
    if name in ("int64", "intp"):
        return TAG_I64
    return None


class _WidthEnv:
    """Per-function dataflow carrying geometry and dtype tags together."""

    def __init__(self, unit: ModuleUnit, context, function: ast.AST,
                 initial) -> None:
        self.cfg = context.cfg(function)
        self.before = environments_before(self.cfg, self._transfer, initial)

    # -- expression evaluation ----------------------------------------------------

    def tags_of(self, env, node: ast.AST) -> AbstractValue:
        key = reference_key(node)
        if key is not None:
            value = env.get(key, BOTTOM)
            if terminal_name(node) in _GEOMETRY_NAMES:
                value = value.with_tag(TAG_GEOM)
            return value
        if isinstance(node, ast.Attribute):
            if node.attr in _GEOMETRY_NAMES:
                return AbstractValue(frozenset({TAG_GEOM}))
            return BOTTOM
        if isinstance(node, ast.BinOp):
            left = self.tags_of(env, node.left)
            right = self.tags_of(env, node.right)
            value = left.join(right)
            if isinstance(node.op, _GROWTH_OPS) and (
                    value.has(TAG_GEOM) or value.has(TAG_WIDE)):
                value = value.with_tag(TAG_WIDE)
            return value
        if isinstance(node, ast.Call):
            return self._call_tags(env, node)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return self.tags_of(env, node.elt)
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            value = BOTTOM
            for element in node.elts:
                value = value.join(self.tags_of(env, element))
            return value
        if isinstance(node, ast.Subscript):
            return self.tags_of(env, node.value)
        if isinstance(node, ast.IfExp):
            return self.tags_of(env, node.body).join(
                self.tags_of(env, node.orelse))
        if isinstance(node, ast.UnaryOp):
            return self.tags_of(env, node.operand)
        if isinstance(node, ast.Starred):
            return self.tags_of(env, node.value)
        return BOTTOM

    def _call_tags(self, env, call: ast.Call) -> AbstractValue:
        name = terminal_name(call.func)
        if name in _GEOMETRY_CALLS:
            return AbstractValue(frozenset({TAG_GEOM}))
        value = BOTTOM
        # Explicit dtype: constructors, .astype(np.int64), np.uint64(x).
        dtype = self._explicit_dtype(call)
        if dtype is not None:
            value = value.with_tag(dtype)
        for argument in call.args:
            value = value.join(self.tags_of(env, argument))
        if isinstance(call.func, ast.Attribute):
            value = value.join(self.tags_of(env, call.func.value))
        # A dtype-setting call pins the result dtype: drop the other tag.
        if dtype is not None:
            other = TAG_I64 if dtype == TAG_U64 else TAG_U64
            value = AbstractValue(value.tags - {other})
        return value

    @staticmethod
    def _explicit_dtype(call: ast.Call) -> Optional[str]:
        name = terminal_name(call.func)
        for keyword in call.keywords:
            if keyword.arg == "dtype":
                tag = _dtype_tag(keyword.value)
                if tag is not None:
                    return tag
        if name == "astype" and call.args:
            return _dtype_tag(call.args[0])
        if name in ("uint64", "int64"):
            return TAG_U64 if name == "uint64" else TAG_I64
        return None

    # -- transfer -----------------------------------------------------------------

    def _transfer(self, env, stmt: ast.stmt):
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)) and \
                getattr(stmt, "value", None) is not None:
            value = self.tags_of(env, stmt.value)
            for key in assignment_keys(stmt):
                env[key] = value
        elif isinstance(stmt, ast.AugAssign):
            key = reference_key(stmt.target)
            if key is not None:
                merged = env.get(key, BOTTOM).join(
                    self.tags_of(env, stmt.value))
                if isinstance(stmt.op, _GROWTH_OPS) and (
                        merged.has(TAG_GEOM) or merged.has(TAG_WIDE)):
                    merged = merged.with_tag(TAG_WIDE)
                env[key] = merged
        # container.extend(wide) / container.append(wide) taints the
        # container (the pre-scaled option pool idiom).
        for node in own_nodes(stmt):
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr in ("append", "extend", "add"):
                receiver = reference_key(node.func.value)
                if receiver is None:
                    continue
                incoming = BOTTOM
                for argument in node.args:
                    incoming = incoming.join(self.tags_of(env, argument))
                if incoming.tags:
                    env[receiver] = env.get(receiver, BOTTOM).join(incoming)
        return env

    def env_before(self, stmt: ast.stmt):
        return self.before.get(id(stmt), {})


def _class_of(unit: ModuleUnit, context, function: ast.AST
              ) -> Optional[ast.ClassDef]:
    classes = getattr(context, "_wid_class_of", None)
    if classes is None:
        classes = {}
        for node in ast.walk(unit.tree):
            if isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if isinstance(stmt, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        classes[id(stmt)] = node
        context._wid_class_of = classes
    elif id(function) not in classes:
        for node in ast.walk(unit.tree):
            if isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if isinstance(stmt, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        classes.setdefault(id(stmt), node)
    return classes.get(id(function))


def _self_attr_dtypes(unit: ModuleUnit, context,
                      function: ast.AST) -> Dict[str, AbstractValue]:
    """Initial environment: ``self.X`` attributes whose dtype is pinned by
    an explicit-dtype assignment anywhere in the enclosing class."""
    owner = _class_of(unit, context, function)
    if owner is None:
        return {}
    prober = _WidthEnv.__new__(_WidthEnv)  # tags_of without a CFG
    initial: Dict[str, AbstractValue] = {}
    for node in ast.walk(owner):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            key = reference_key(target)
            if key is None or not key.startswith("self."):
                continue
            tags = prober.tags_of({}, node.value)
            dtypes = tags.tags & {TAG_U64, TAG_I64}
            if len(dtypes) == 1:
                known = initial.get(key, BOTTOM)
                initial[key] = known.join(AbstractValue(frozenset(dtypes)))
    # Attributes assigned both dtypes somewhere are ambiguous: drop them.
    return {key: value for key, value in initial.items()
            if not (value.has(TAG_U64) and value.has(TAG_I64))}


def _width_flows(unit: ModuleUnit, context) -> Iterator[_WidthEnv]:
    for function in context.functions(unit):
        source = "\n".join(unit.lines[function.lineno - 1:function.end_lineno])
        if "int64" not in source and "uint64" not in source:
            continue
        initial = _self_attr_dtypes(unit, context, function)
        yield _WidthEnv(unit, context, function, initial)


class PackedWidthGuardRule(AstRule):
    """WID001: geometry growth into uint64 needs a dominating 63-bit guard."""

    rule = "WID001"
    description = ("geometry-derived growth arithmetic flowing into a "
                   "dtype=np.uint64 construction must be dominated by a "
                   "2**63 width guard on every path")

    def check(self, unit: ModuleUnit, context) -> Iterator[Finding]:
        for flow in _width_flows(unit, context):
            guards = [stmt for stmt in flow.cfg.statements()
                      if _is_width_guard(stmt)]
            for stmt in flow.cfg.statements():
                env = flow.env_before(stmt)
                for node in own_nodes(stmt):
                    if not isinstance(node, ast.Call):
                        continue
                    if not self._is_uint64_sink(flow, env, node):
                        continue
                    if any(flow.cfg.dominates(guard, stmt)
                           for guard in guards):
                        continue
                    yield self.finding(
                        unit, node,
                        "geometry growth arithmetic reaches a uint64 "
                        "construction with no dominating 2**63 guard; "
                        "past 63 bits the packed word silently wraps -- "
                        "guard like PackedStepTable.__init__ does")

    @staticmethod
    def _is_uint64_sink(flow: _WidthEnv, env, call: ast.Call) -> bool:
        name = terminal_name(call.func)
        wide_args = any(flow.tags_of(env, argument).has(TAG_WIDE)
                        for argument in call.args)
        if name in _NP_CONSTRUCTORS and wide_args:
            return flow._explicit_dtype(call) == TAG_U64
        if name == "uint64" and wide_args:
            return True
        if name == "astype" and call.args and \
                _dtype_tag(call.args[0]) == TAG_U64 and \
                isinstance(call.func, ast.Attribute):
            return flow.tags_of(env, call.func.value).has(TAG_WIDE)
        return False


class CrossDtypeComparisonRule(AstRule):
    """WID003: comparing split-code dtypes routes through float64."""

    rule = "WID003"
    description = ("comparisons between uint64 words and int64 tails go "
                   "through float64 and can equate distinct codes; compare "
                   "within one dtype")

    def check(self, unit: ModuleUnit, context) -> Iterator[Finding]:
        for flow in _width_flows(unit, context):
            for stmt in flow.cfg.statements():
                env = flow.env_before(stmt)
                for node in own_nodes(stmt):
                    if not isinstance(node, ast.Compare):
                        continue
                    parts = [node.left, *node.comparators]
                    for first, second in zip(parts, parts[1:]):
                        left = flow.tags_of(env, first)
                        right = flow.tags_of(env, second)
                        mixed = (left.has(TAG_U64) and right.has(TAG_I64)
                                 and not right.has(TAG_U64)
                                 and not left.has(TAG_I64)) or \
                                (left.has(TAG_I64) and right.has(TAG_U64)
                                 and not right.has(TAG_I64)
                                 and not left.has(TAG_U64))
                        if mixed:
                            yield self.finding(
                                unit, node,
                                "uint64 word compared against an int64 "
                                "tail: the comparison runs in float64 and "
                                "can equate distinct codes above 2**53")


WID_RULES = (PackedWidthGuardRule, CrossDtypeComparisonRule)
