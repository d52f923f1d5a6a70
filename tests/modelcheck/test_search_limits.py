"""Regression tests for the bounded-search fixes.

Two historical bugs, each pinned here, plus the ``max_states`` boundary
of the state-space statistics:

* ``find_deadlocks`` silently dropped states past ``max_states`` -- a
  bounded scan could report "no deadlocks" about a space it never saw;
* the checker's progress hook fired on ``len(parent) % interval``, which
  skips beats whenever several states are added between checks.
"""

from repro.analysis.statespace import explore
from repro.modelcheck.checker import (DeadlockSearchResult, InvariantChecker,
                                      find_deadlocks)
from repro.modelcheck.model import ExplicitTransitionSystem
from repro.modelcheck.state import StateSpace, Variable


def chain_system(length=10, loop_last=True):
    sp = StateSpace([Variable("n")])
    transitions = {}
    for value in range(length):
        transitions[(value,)] = [((value + 1,), {"step": value})]
    transitions[(length,)] = [((length,), {})] if loop_last else []
    return ExplicitTransitionSystem(sp, [(0,)], transitions), sp


# ---------------------------------------------------------------------------
# find_deadlocks truncation reporting
# ---------------------------------------------------------------------------

def test_bounded_deadlock_scan_reports_truncation():
    """The deadlock (at depth 50) lies beyond the bound: the scan must say
    it was cut short, not report a clean bill of health."""
    system, _ = chain_system(length=50, loop_last=False)
    result = find_deadlocks(system, max_states=10)
    assert result.truncated
    assert not result.exhaustive
    assert len(result) == 0
    assert result.states_explored == 10


def test_exhaustive_deadlock_scan_is_marked_exhaustive():
    system, _ = chain_system(length=5, loop_last=False)
    result = find_deadlocks(system)
    assert not result.truncated
    assert result.exhaustive
    assert len(result) == 1
    assert result.states_explored == 6


def test_deadlock_result_still_compares_to_lists():
    """Backward compatibility: callers that compared against ``[]`` keep
    working."""
    system, _ = chain_system(loop_last=True)
    result = find_deadlocks(system)
    assert result == []
    assert isinstance(result, DeadlockSearchResult)
    system, _ = chain_system(length=3, loop_last=False)
    nonempty = find_deadlocks(system)
    assert nonempty != []
    assert list(nonempty) == [nonempty[0]]


def test_bounded_scan_finds_deadlocks_inside_the_bound():
    system, _ = chain_system(length=4, loop_last=False)
    result = find_deadlocks(system, max_states=100)
    assert not result.truncated
    assert len(result) == 1
    assert len(result[0]) == 4


# ---------------------------------------------------------------------------
# State-space statistics boundary
# ---------------------------------------------------------------------------

def test_explore_exact_limit_is_not_truncation():
    """Exactly ``max_states`` reachable states is within budget."""
    system, _ = chain_system(length=9)  # 10 states: 0..9 plus loop at 9
    stats = explore(system, max_states=10)
    assert stats.states == 10
    assert not stats.truncated


def test_explore_never_overshoots():
    """One state over the limit stops at the limit and says so."""
    system, _ = chain_system(length=10)  # 11 reachable states
    stats = explore(system, max_states=10)
    assert stats.states == 10
    assert stats.truncated


# ---------------------------------------------------------------------------
# Progress hook cadence
# ---------------------------------------------------------------------------

def test_progress_fires_every_interval():
    """With interval K, the hook fires exactly floor(states/K) times --
    the monotonic-counter fix; the old ``len(parent)`` check could skip
    beats."""
    system, _ = chain_system(length=49)  # 50 states total
    beats = []
    checker = InvariantChecker(system,
                               progress=lambda states, depth:
                               beats.append(states),
                               progress_interval=10)
    checker.check(lambda view: True)
    assert beats == [10, 20, 30, 40, 50]


def test_progress_counts_match_between_engines():
    space = StateSpace([Variable("n", domain=tuple(range(40)))])
    transitions = {(value,): [((value + 1,), {})] for value in range(39)}
    transitions[(39,)] = []
    system = ExplicitTransitionSystem(space, [(0,)], transitions)
    beats = {}
    for engine in ("tuple", "packed"):
        fired = []
        checker = InvariantChecker(system,
                                   progress=lambda states, depth:
                                   fired.append(states),
                                   progress_interval=7,
                                   engine=engine)
        checker.check(lambda view: True)
        beats[engine] = fired
    assert beats["packed"] == beats["tuple"]
    assert beats["tuple"] == [7, 14, 21, 28, 35]
