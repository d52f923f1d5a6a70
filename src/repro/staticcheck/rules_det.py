"""DET -- the determinism sanitizer.

Every verdict this reproduction reports (model-checking matrix,
conformance replays, Monte-Carlo statistics, campaign tables) is promised
to be bit-for-bit reproducible from a seed.  The rules below flag the
classic ways Python code silently breaks that promise:

======== ==============================================================
DET001   wall-clock reads (``time.time``, ``datetime.now``, ...)
DET002   direct ``random`` module use outside ``sim/rng.py``
DET003   iteration over sets / unordered views in hot paths
         (``sim/``, ``modelcheck/``, ``ttp/``)
DET004   ``id()``-based ordering (sort keys, magnitude comparisons)
DET005   float ``==`` / ``!=`` in clock-synchronization code
DET006   nondeterministic NumPy idioms in hot paths (unseeded
         ``np.random``, unstable sort kinds, ``np.unique``
         first-occurrence-index assumptions)
======== ==============================================================

``time.perf_counter`` stays legal: elapsed-time *measurement* does not
feed back into simulation behaviour, while wall-clock *values* do.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.staticcheck.findings import Finding
from repro.staticcheck.framework import AstRule, ModuleUnit, dotted_name

#: Dotted call targets that read the wall clock.
WALL_CLOCK_CALLS = frozenset({
    "time.time",
    "time.time_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "date.today",
    "datetime.date.today",
})

#: Path segments whose files are determinism-critical hot paths.
HOT_PATH_DIRS = ("sim", "modelcheck", "ttp")

#: Set-producing method names (``a.union(b)`` has set iteration order).
SET_METHODS = frozenset({"union", "intersection", "difference",
                         "symmetric_difference"})


class WallClockRule(AstRule):
    """DET001: reading the wall clock makes runs unreproducible."""

    rule = "DET001"
    description = ("wall-clock read; simulated time comes from the engine, "
                   "elapsed time from time.perf_counter")

    def check(self, unit: ModuleUnit, context) -> Iterator[Finding]:
        for node in ast.walk(unit.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            if name in WALL_CLOCK_CALLS or any(
                    name.endswith("." + target) for target in WALL_CLOCK_CALLS):
                yield self.finding(
                    unit, node,
                    f"wall-clock read {name}() breaks run reproducibility; "
                    f"use simulated time or time.perf_counter for durations")


class RawRandomRule(AstRule):
    """DET002: all randomness flows through the seeded RandomStream tree."""

    rule = "DET002"
    description = ("direct random-module use outside sim/rng.py; draw from "
                   "a seeded repro.sim.rng.RandomStream substream instead")

    def applies_to(self, unit: ModuleUnit) -> bool:
        # The one blessed wrapper is the seeded-stream module itself.
        return not unit.rel_path.endswith("sim/rng.py")

    def check(self, unit: ModuleUnit, context) -> Iterator[Finding]:
        for node in ast.walk(unit.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield self.finding(
                            unit, node,
                            "import of the global random module; use "
                            "repro.sim.rng.RandomStream (seeded substreams)")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    yield self.finding(
                        unit, node,
                        "import from the global random module; use "
                        "repro.sim.rng.RandomStream (seeded substreams)")
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name is not None and name.startswith("random."):
                    yield self.finding(
                        unit, node,
                        f"call to {name}() draws from the unseeded global "
                        f"generator; use a RandomStream substream")


def _is_set_expression(node: ast.AST) -> bool:
    """Whether an expression syntactically produces a set (or frozenset)."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        if name in ("set", "frozenset"):
            return True
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr in SET_METHODS):
            return True
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        return _is_set_expression(node.left) or _is_set_expression(node.right)
    return False


class SetIterationRule(AstRule):
    """DET003: set iteration order depends on PYTHONHASHSEED."""

    rule = "DET003"
    description = ("iteration over a set in a determinism-critical hot path; "
                   "wrap in sorted() or iterate an ordered container")

    def applies_to(self, unit: ModuleUnit) -> bool:
        return unit.in_directory(*HOT_PATH_DIRS)

    def _iteration_sources(self, unit: ModuleUnit) -> Iterator[ast.AST]:
        for node in ast.walk(unit.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                yield node.iter
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for generator in node.generators:
                    yield generator.iter

    def check(self, unit: ModuleUnit, context) -> Iterator[Finding]:
        for source in self._iteration_sources(unit):
            if _is_set_expression(source):
                yield self.finding(
                    unit, source,
                    "iterating a set: order varies with PYTHONHASHSEED, so "
                    "traces and verdicts stop being reproducible; sort first")


class IdOrderingRule(AstRule):
    """DET004: ``id()`` values vary per process; never order by them."""

    rule = "DET004"
    description = ("id()-based ordering; object addresses differ between "
                   "runs, sort on stable keys instead")

    @staticmethod
    def _is_id_call(node: ast.AST) -> bool:
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "id")

    def check(self, unit: ModuleUnit, context) -> Iterator[Finding]:
        for node in ast.walk(unit.tree):
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                is_order_call = name in ("sorted", "min", "max") or (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "sort")
                if is_order_call:
                    for keyword in node.keywords:
                        if (keyword.arg == "key"
                                and isinstance(keyword.value, ast.Name)
                                and keyword.value.id == "id"):
                            yield self.finding(
                                unit, node,
                                "ordering by id(): object addresses are not "
                                "stable between runs")
            elif isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                ordered = any(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE))
                              for op in node.ops)
                if ordered and any(self._is_id_call(op) for op in operands):
                    yield self.finding(
                        unit, node,
                        "magnitude comparison of id() values: object "
                        "addresses are not stable between runs")


def _involves_float_literal(node: ast.AST) -> bool:
    for child in ast.walk(node):
        if isinstance(child, ast.Constant) and isinstance(child.value, float):
            return True
    return False


class FloatEqualityRule(AstRule):
    """DET005: exact float comparison in clock-sync code.

    Clock synchronization computes drift corrections from float rates and
    offsets; exact equality on such values is platform- and
    rounding-sensitive, which is how two hosts disagree on a verdict.
    """

    rule = "DET005"
    description = ("float equality in clock-sync code; compare against a "
                   "tolerance (abs(a - b) < eps)")

    #: Module basenames that implement clock synchronization.
    CLOCK_FILES = ("clock_sync.py", "clock.py")

    def applies_to(self, unit: ModuleUnit) -> bool:
        name = unit.basename()
        return name in self.CLOCK_FILES or "clock" in name

    def check(self, unit: ModuleUnit, context) -> Iterator[Finding]:
        for node in ast.walk(unit.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            operands = [node.left, *node.comparators]
            if any(_involves_float_literal(operand) for operand in operands):
                yield self.finding(
                    unit, node,
                    "exact equality against a float in clock-sync code is "
                    "rounding-sensitive; compare within a tolerance")


#: Sort kinds whose tie order is implementation-defined.  Equal keys may
#: land in different relative positions across NumPy versions and
#: platforms, so any payload riding along (parent indices, labels) stops
#: being reproducible; 'stable' / 'mergesort' are the deterministic kinds.
UNSTABLE_SORT_KINDS = frozenset({"quicksort", "heapsort"})

#: NumPy call suffixes the DET006 rule treats as sorts with a ``kind``.
_NUMPY_SORT_CALLS = ("sort", "argsort")


class NumpyDeterminismRule(AstRule):
    """DET006: NumPy idioms whose results vary per run or per version.

    The vectorized frontier engine promises the same verdicts, state
    orders, and counterexamples as the scalar engines; three NumPy
    habits silently break that:

    * ``np.random.*`` draws (and ``default_rng()`` without a seed) pull
      from process-global or OS entropy;
    * explicit ``kind='quicksort'`` / ``'heapsort'`` sorts reorder equal
      keys differently across NumPy builds -- payload carried alongside
      the keys (parent links, labels) then differs run to run;
    * ``np.unique(..., return_index=True)`` is commonly read as "index
      of the first occurrence", a guarantee tied to the internal sort's
      stability -- derive indices from an explicit stable sort instead.
    """

    rule = "DET006"
    description = ("nondeterministic NumPy idiom in a hot path: seed the "
                   "generator, use a stable sort kind, and avoid "
                   "np.unique(return_index=True)")

    def applies_to(self, unit: ModuleUnit) -> bool:
        return unit.in_directory(*HOT_PATH_DIRS)

    @staticmethod
    def _is_numpy_random(name: str) -> bool:
        return name.startswith(("np.random.", "numpy.random."))

    def check(self, unit: ModuleUnit, context) -> Iterator[Finding]:
        for node in ast.walk(unit.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            if self._is_numpy_random(name):
                if name.endswith(".default_rng") and (node.args
                                                      or node.keywords):
                    continue  # seeded generator construction is the fix
                yield self.finding(
                    unit, node,
                    f"{name}() draws from unseeded process-global entropy; "
                    f"construct np.random.default_rng(seed) from a "
                    f"RandomStream-derived seed")
                continue
            if (name.endswith(_NUMPY_SORT_CALLS)
                    or name in _NUMPY_SORT_CALLS):
                for keyword in node.keywords:
                    if (keyword.arg == "kind"
                            and isinstance(keyword.value, ast.Constant)
                            and keyword.value.value in UNSTABLE_SORT_KINDS):
                        yield self.finding(
                            unit, node,
                            f"sort kind {keyword.value.value!r} reorders "
                            f"equal keys differently across NumPy builds; "
                            f"use kind='stable'")
            if name.endswith("unique") or name == "unique":
                for keyword in node.keywords:
                    if (keyword.arg == "return_index"
                            and not (isinstance(keyword.value, ast.Constant)
                                     and keyword.value.value is False)):
                        yield self.finding(
                            unit, node,
                            "np.unique(return_index=True) couples the "
                            "result to the internal sort's stability; "
                            "derive indices from an explicit stable sort")


DET_RULES = (WallClockRule, RawRandomRule, SetIterationRule, IdOrderingRule,
             FloatEqualityRule, NumpyDeterminismRule)
