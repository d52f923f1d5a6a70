"""The transition-system interface.

A model for the checker is anything that provides:

* a :class:`repro.modelcheck.state.StateSpace`,
* an iterable of initial states (tuples), and
* a successor function yielding :class:`Transition` objects -- the
  nondeterministic next states, each optionally annotated with a label
  describing the choice made (which frame was on the bus, which coupler
  fault fired, ...).  Labels make counterexample traces readable; they do
  not affect the search.

Formally this matches the paper's Section 4.2 setup: a finite set of
states ``S``, initial states ``I``, and transition relation ``R`` given as
constraints; the successor function enumerates exactly the ``x'`` with
``R(x, x')``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Protocol, Tuple

from repro.modelcheck.state import StateSpace


@dataclass(frozen=True)
class Transition:
    """One outgoing transition: target state plus a descriptive label."""

    target: tuple
    label: Dict[str, Any] = field(default_factory=dict)


class TransitionSystem(Protocol):
    """Structural interface consumed by the checker."""

    space: StateSpace

    def initial_states(self) -> Iterable[tuple]:
        """All initial states."""
        ...

    def successors(self, state: tuple) -> Iterable[Transition]:
        """All transitions enabled in ``state``."""
        ...


class ExplicitTransitionSystem:
    """A transition system given extensionally (useful in tests).

    ``transitions`` maps a state tuple to a list of (target, label) pairs.
    """

    def __init__(self, space: StateSpace, initial: List[tuple],
                 transitions: Dict[tuple, List[Tuple[tuple, Dict[str, Any]]]]) -> None:
        self.space = space
        self._initial = list(initial)
        self._transitions = dict(transitions)

    def initial_states(self) -> Iterator[tuple]:
        return iter(self._initial)

    def successors(self, state: tuple) -> Iterator[Transition]:
        for target, label in self._transitions.get(state, []):
            yield Transition(target=target, label=label)


def count_reachable(system: TransitionSystem,
                    max_states: int = 1_000_000,
                    engine: str = "tuple") -> int:
    """Size of the reachable state space (diagnostics/benchmarks).

    Raises :class:`RuntimeError` as soon as a state *beyond* the limit
    would be enqueued (checked before insertion, like the checker's
    bounded search -- the limit can never be silently overshot).  The
    ``"vectorized"`` engine counts whole frontier batches at once but
    keeps the limit check exact: a batch that *would* push the visited
    set past ``max_states`` raises before being committed, even when
    the overshoot happens mid-batch.
    """
    from collections import deque

    if engine == "vectorized":
        return _count_reachable_vectorized(system, max_states)
    if engine != "tuple":
        raise ValueError(f"unknown engine {engine!r}; "
                         f"pick one of ('tuple', 'vectorized')")

    seen = set()
    frontier = deque()

    def add(state: tuple) -> None:
        if len(seen) >= max_states:
            raise RuntimeError(f"more than {max_states} reachable states")
        seen.add(state)
        frontier.append(state)

    for state in system.initial_states():
        if state not in seen:
            add(state)
    while frontier:
        state = frontier.popleft()
        for transition in system.successors(state):
            if transition.target not in seen:
                add(transition.target)
    return len(seen)


def _count_reachable_vectorized(system: TransitionSystem,
                                max_states: int) -> int:
    """Batched reachable-set count with an exact limit check.

    The explorer is asked to commit at most ``max_states`` states total
    (the per-level ``limit``); an overshoot flag on any level means the
    true count exceeds the limit and raises the same ``RuntimeError`` as
    the tuple path -- no silent truncation, no overshoot.
    """
    from repro.modelcheck.vector import VectorExplorer

    if not hasattr(system, "packed_geometry"):
        raise ValueError(
            "vectorized counting needs a system with a native batch path "
            "(packed_geometry)")
    explorer = VectorExplorer(system)

    def guard(over: bool) -> None:
        if over:
            raise RuntimeError(f"more than {max_states} reachable states")

    words, tails, over = explorer.initial_level(limit=max_states)
    guard(over)
    while len(words):
        remaining = max_states - explorer.seen_count
        words, tails, _, over = explorer.step(words, tails, limit=remaining)
        guard(over)
    return explorer.seen_count
