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

