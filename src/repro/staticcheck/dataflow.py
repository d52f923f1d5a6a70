"""Forward dataflow over a function CFG with a small tag lattice.

The abstract domain is deliberately tiny: an :class:`AbstractValue` is a
set of *tags* ("this value may be a uint64-typed array", "this value may
be a process pool", "this value is derived from packed-layout
geometry").  The lattice join is set union -- a may-analysis: a tag says
the property holds on *some* path, which is the right polarity for
hazard rules (a width bug on one path is a finding).

:func:`solve_forward` runs the classic worklist fixpoint over basic
blocks; a rule supplies a per-statement transfer function and reads the
block-entry environments back.  Environments map variable keys -- plain
names (``x``) and ``self`` attributes (``self.x``) -- to abstract values.
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, FrozenSet, List, Optional

from repro.staticcheck.cfg import CFG

class AbstractValue:
    """An immutable set of tags; join is union."""

    __slots__ = ("tags",)

    def __init__(self, tags: FrozenSet[str] = frozenset()) -> None:
        self.tags = frozenset(tags)

    def join(self, other: "AbstractValue") -> "AbstractValue":
        if self.tags >= other.tags:
            return self
        if other.tags >= self.tags:
            return other
        return AbstractValue(self.tags | other.tags)

    def with_tag(self, tag: str) -> "AbstractValue":
        return AbstractValue(self.tags | {tag})

    def has(self, tag: str) -> bool:
        return tag in self.tags

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AbstractValue) and self.tags == other.tags

    def __hash__(self) -> int:
        return hash(self.tags)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"AbstractValue({sorted(self.tags)})"


#: The bottom element: no tags known.
BOTTOM = AbstractValue()


Environment = Dict[str, AbstractValue]


def join_environments(left: Environment, right: Environment) -> Environment:
    """Pointwise join; keys absent on one side keep the other's value
    (absent == bottom, and join with bottom is identity)."""
    if not left:
        return dict(right)
    if not right:
        return dict(left)
    merged = dict(left)
    for key, value in right.items():
        existing = merged.get(key)
        merged[key] = value if existing is None else existing.join(value)
    return merged


def reference_key(node: ast.AST) -> Optional[str]:
    """Environment key of a name or ``self``-attribute expression."""
    if isinstance(node, ast.Name):
        return node.id
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return "self." + node.attr
    return None


def assignment_keys(stmt: ast.stmt) -> List[str]:
    """Environment keys *rebound* by an assignment statement.

    Tuple/list/starred targets are flattened; subscript and non-``self``
    attribute stores bind nothing (``a[i] = x`` mutates ``a``, it does not
    rebind it -- the base name deliberately does NOT appear here, so an
    element store keeps the array's WID dtype tag).
    """
    targets: List[ast.AST] = []
    if isinstance(stmt, ast.Assign):
        targets = list(stmt.targets)
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        targets = [stmt.target]
    keys: List[str] = []

    def visit(target: ast.AST) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                visit(element)
        elif isinstance(target, ast.Starred):
            visit(target.value)
        else:
            key = reference_key(target)
            if key is not None:
                keys.append(key)

    for target in targets:
        visit(target)
    return keys


def solve_forward(cfg: CFG,
                  transfer: Callable[[Environment, ast.stmt], Environment],
                  initial: Optional[Environment] = None
                  ) -> Dict[int, Environment]:
    """Worklist fixpoint; returns the environment at *entry* of each block.

    ``transfer(env, stmt)`` must return the post-statement environment
    (it may mutate and return ``env``).  Joins are monotone because tag
    sets only grow, so termination is bounded by blocks x tags.
    """
    entry_env: Dict[int, Environment] = {cfg.entry.index: dict(initial or {})}
    worklist = [cfg.entry]
    while worklist:
        block = worklist.pop(0)
        env = dict(entry_env.get(block.index, {}))
        for stmt in block.statements:
            env = transfer(env, stmt)
        for successor in block.successors:
            known = entry_env.get(successor.index)
            merged = env if known is None else join_environments(known, env)
            if known is None or merged != known:
                entry_env[successor.index] = dict(merged)
                if successor not in worklist:
                    worklist.append(successor)
    return entry_env


def environments_before(cfg: CFG,
                        transfer: Callable[[Environment, ast.stmt],
                                           Environment],
                        initial: Optional[Environment] = None
                        ) -> Dict[int, Environment]:
    """Environment immediately *before* every placed statement.

    Convenience wrapper over :func:`solve_forward` for rules that inspect
    each statement against the state flowing into it; keys are
    ``id(statement)``.
    """
    block_entry = solve_forward(cfg, transfer, initial)
    before: Dict[int, Environment] = {}
    for block in cfg.blocks:
        env = dict(block_entry.get(block.index, {}))
        for stmt in block.statements:
            before[id(stmt)] = dict(env)
            env = transfer(env, stmt)
    return before
