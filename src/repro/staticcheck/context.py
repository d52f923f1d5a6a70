"""The shared analysis context every rule ``check()`` receives.

One :class:`AnalysisContext` is built per lint run and memoizes the
expensive artifacts so no rule ever re-walks them: the parsed module
universe, per-function control-flow graphs (:mod:`cfg`), and the
repo-wide call graph (:mod:`callgraph`).  Per-file rules can ignore it;
the flow-aware packs (CON/WID/ORD) request CFGs on demand, and CON
resolves pool-submitted callables through the call graph.

``report_paths`` implements ``repro lint --changed``: when set, the
context still spans the *whole* universe (call-graph and event-kind
facts need every module) but :meth:`should_report` restricts which files findings may
land in.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set

from repro.staticcheck.callgraph import CallGraph
from repro.staticcheck.cfg import CFG, build_cfg
from repro.staticcheck.framework import ModuleUnit


class AnalysisContext:
    """Memoized universe-wide state shared by all rules in one run."""

    def __init__(self, units: Iterable[ModuleUnit],
                 report_paths: Optional[Set[str]] = None) -> None:
        self.units: List[ModuleUnit] = list(units)
        self.by_path: Dict[str, ModuleUnit] = {
            unit.rel_path: unit for unit in self.units}
        self.report_paths = report_paths
        self._cfgs: Dict[int, CFG] = {}
        self._callgraph: Optional[CallGraph] = None
        self._function_lists: Dict[int, List[ast.AST]] = {}

    # -- memoized artifacts --------------------------------------------------------

    @property
    def callgraph(self) -> CallGraph:
        if self._callgraph is None:
            self._callgraph = CallGraph(self.units)
        return self._callgraph

    def cfg(self, function_node: ast.AST) -> CFG:
        """The (memoized) CFG of one function definition node."""
        cached = self._cfgs.get(id(function_node))
        if cached is None:
            cached = build_cfg(function_node)
            self._cfgs[id(function_node)] = cached
        return cached

    def functions(self, unit: ModuleUnit) -> List[ast.AST]:
        """All function definition nodes of a unit (memoized walk)."""
        cached = self._function_lists.get(id(unit))
        if cached is None:
            cached = [node for node in ast.walk(unit.tree)
                      if isinstance(node, (ast.FunctionDef,
                                           ast.AsyncFunctionDef))]
            self._function_lists[id(unit)] = cached
        return cached

    # -- changed-mode gating -------------------------------------------------------

    def should_report(self, rel_path: str) -> bool:
        """Whether findings may land in ``rel_path`` (``--changed`` gate)."""
        return self.report_paths is None or rel_path in self.report_paths
