"""State-space statistics.

Exhaustively explores a transition system and reports the structural
numbers a model-checking paper quotes: reachable states, transitions,
diameter (maximum BFS depth), branching factors, and deadlocks.  Behind
the ``repro statespace`` CLI.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.modelcheck.checker import _level_bfs, _tuple_bfs, runs_level_loop
from repro.modelcheck.model import TransitionSystem


@dataclass
class StateSpaceStats:
    """Structural summary of one reachable state space."""

    states: int
    transitions: int
    diameter: int
    max_branching: int
    deadlock_states: int
    elapsed_seconds: float
    depth_histogram: Dict[int, int] = field(default_factory=dict)
    truncated: bool = False

    @property
    def average_branching(self) -> float:
        if self.states == 0:
            return 0.0
        return self.transitions / self.states

    @property
    def states_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.states / self.elapsed_seconds

    def rows(self) -> List[tuple]:
        """Key/value rows for table rendering."""
        return [
            ("reachable states", self.states),
            ("transitions", self.transitions),
            ("diameter (BFS depth)", self.diameter),
            ("avg branching factor", f"{self.average_branching:.2f}"),
            ("max branching factor", self.max_branching),
            ("deadlock states", self.deadlock_states),
            ("exploration time", f"{self.elapsed_seconds:.2f}s"),
            ("exploration rate", f"{self.states_per_second:,.0f} states/s"),
        ]


def explore(system: TransitionSystem,
            max_states: Optional[int] = None) -> StateSpaceStats:
    """BFS over the reachable states, collecting structural statistics.

    Runs on the checker's level loop wherever ``engine="auto"`` does
    (:func:`~repro.modelcheck.checker.runs_level_loop`), else on the
    tuple engine's BFS.  The two walks keep the same ``max_states``
    prefix and, on a model whose ``successors`` yields each target once
    per state (as :class:`~repro.model.system_model.TTAStartupModel`
    does), report the same statistics.
    """
    started = time.perf_counter()
    if runs_level_loop(system):
        search = _level_bfs(system, branching=True, max_states=max_states)
        states, deadlocks = search.committed, search.deadlocks
        histogram = {depth: len(words)
                     for depth, (words, _, _) in enumerate(search.levels)}
    else:
        search = _tuple_bfs(system, collect_deadlocks=True,
                            max_states=max_states)
        states, deadlocks = len(search.parent), len(search.deadlocked)
        histogram = dict(Counter(search.depth_of.values()))
    return StateSpaceStats(states=states, transitions=search.transitions,
                           diameter=search.max_depth_seen,
                           max_branching=search.max_branching,
                           deadlock_states=deadlocks,
                           elapsed_seconds=time.perf_counter() - started,
                           depth_histogram=histogram,
                           truncated=search.truncated)
