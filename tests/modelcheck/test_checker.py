"""Tests for BFS invariant checking and shortest counterexamples."""

from repro.modelcheck.checker import InvariantChecker, check_invariant
from repro.modelcheck.model import ExplicitTransitionSystem
from repro.modelcheck.state import StateSpace, Variable


def counter_system(limit=10, bad_at=None):
    """A chain 0 -> 1 -> ... -> limit with an optional branch."""
    sp = StateSpace([Variable("n")])
    transitions = {}
    for value in range(limit):
        transitions[(value,)] = [((value + 1,), {"step": value})]
    transitions[(limit,)] = []
    return ExplicitTransitionSystem(sp, [(0,)], transitions), sp


def test_invariant_holds_on_safe_system():
    system, _ = counter_system(limit=10)
    result = check_invariant(system, lambda view: view.n <= 10)
    assert result.holds
    assert result.counterexample is None
    assert result.states_explored == 11
    assert result.verdict == "HOLDS"


def test_violation_found_with_trace():
    system, _ = counter_system(limit=10)
    result = check_invariant(system, lambda view: view.n < 5)
    assert not result.holds
    assert result.verdict == "VIOLATED"
    trace = result.counterexample
    assert trace is not None
    assert len(trace) == 5
    assert trace.final_view().n == 5


def test_counterexample_is_shortest():
    """Two paths to the bad state: length 2 and length 5; BFS finds 2."""
    sp = StateSpace([Variable("n")])
    transitions = {
        (0,): [((1,), {}), ((10,), {})],
        (1,): [((2,), {})],
        (2,): [((3,), {})],
        (3,): [((4,), {})],
        (4,): [((99,), {})],
        (10,): [((99,), {})],
    }
    system = ExplicitTransitionSystem(sp, [(0,)], transitions)
    result = check_invariant(system, lambda view: view.n != 99)
    assert len(result.counterexample) == 2


def test_violating_initial_state():
    sp = StateSpace([Variable("n")])
    system = ExplicitTransitionSystem(sp, [(7,)], {})
    result = check_invariant(system, lambda view: view.n != 7)
    assert not result.holds
    assert len(result.counterexample) == 0


def test_multiple_initial_states_deduplicated():
    sp = StateSpace([Variable("n")])
    system = ExplicitTransitionSystem(sp, [(0,), (0,), (1,)],
                                      {(0,): [], (1,): []})
    result = check_invariant(system, lambda view: True)
    assert result.states_explored == 2


def test_max_depth_truncation():
    system, _ = counter_system(limit=100)
    result = check_invariant(system, lambda view: view.n < 50, max_depth=10)
    assert result.holds
    assert result.truncated
    assert "truncated" in result.verdict


def test_max_states_truncation():
    system, _ = counter_system(limit=100)
    result = check_invariant(system, lambda view: view.n < 50, max_states=5)
    assert result.holds
    assert result.truncated


def test_trace_labels_preserved():
    system, _ = counter_system(limit=5)
    result = check_invariant(system, lambda view: view.n < 3)
    labels = result.counterexample.labels()
    assert labels == [{"step": 0}, {"step": 1}, {"step": 2}]


def test_cyclic_system_terminates():
    sp = StateSpace([Variable("n")])
    transitions = {(0,): [((1,), {})], (1,): [((0,), {})]}
    system = ExplicitTransitionSystem(sp, [(0,)], transitions)
    result = check_invariant(system, lambda view: True)
    assert result.holds
    assert result.states_explored == 2


def test_progress_callback_invoked():
    system, _ = counter_system(limit=50)
    calls = []
    checker = InvariantChecker(system, progress=lambda states, depth:
                               calls.append((states, depth)),
                               progress_interval=10)
    checker.check(lambda view: True)
    assert calls  # fired at least once at states==10


def test_transitions_explored_counted():
    system, _ = counter_system(limit=10)
    result = check_invariant(system, lambda view: True)
    assert result.transitions_explored == 10


def test_summary_text():
    system, _ = counter_system(limit=3)
    result = check_invariant(system, lambda view: view.n < 2)
    text = result.summary()
    assert "VIOLATED" in text
    assert "counterexample length: 2" in text
