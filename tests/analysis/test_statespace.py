"""Tests for state-space statistics."""

import dataclasses

import pytest

from repro.analysis.statespace import StateSpaceStats, explore
from repro.core.authority import CouplerAuthority, all_authorities
from repro.model.scenarios import scenario_for_authority
from repro.model.system_model import TTAStartupModel
from repro.modelcheck import encode
from repro.modelcheck.checker import runs_level_loop
from repro.modelcheck.model import ExplicitTransitionSystem
from repro.modelcheck.state import StateSpace, Variable


def diamond_system():
    sp = StateSpace([Variable("n")])
    transitions = {
        (0,): [((1,), {}), ((2,), {})],
        (1,): [((3,), {})],
        (2,): [((3,), {})],
        (3,): [((3,), {})],
    }
    return ExplicitTransitionSystem(sp, [(0,)], transitions)


def test_explore_counts_states_and_transitions():
    stats = explore(diamond_system())
    assert stats.states == 4
    assert stats.transitions == 5
    assert stats.diameter == 2
    assert stats.deadlock_states == 0


def test_branching_factors():
    stats = explore(diamond_system())
    assert stats.max_branching == 2
    assert stats.average_branching == pytest.approx(5 / 4)


def test_depth_histogram():
    stats = explore(diamond_system())
    assert stats.depth_histogram == {0: 1, 1: 2, 2: 1}


def test_truncation_flag():
    stats = explore(diamond_system(), max_states=2)
    assert stats.truncated
    assert stats.states == 2


def test_rows_rendering():
    rows = explore(diamond_system()).rows()
    keys = [key for key, _value in rows]
    assert "reachable states" in keys
    assert "diameter (BFS depth)" in keys


def test_paper_model_statistics():
    """Structural numbers of the Section 4 model (PASS configuration)."""
    system = TTAStartupModel(scenario_for_authority(CouplerAuthority.PASSIVE))
    stats = explore(system)
    assert stats.states == 14772
    assert stats.deadlock_states == 0
    assert stats.diameter >= 16  # startup to all-active takes >= 16 slots
    assert not stats.truncated


def test_full_shifting_space_is_larger():
    passive = explore(TTAStartupModel(
        scenario_for_authority(CouplerAuthority.PASSIVE)))
    full = explore(TTAStartupModel(
        scenario_for_authority(CouplerAuthority.FULL_SHIFTING)))
    assert full.states > passive.states


def test_zero_state_stats_edges():
    stats = StateSpaceStats(states=0, transitions=0, diameter=0,
                            max_branching=0, deadlock_states=0,
                            elapsed_seconds=0.0)
    assert stats.average_branching == 0.0
    assert stats.states_per_second == 0.0


def model(authority, slots):
    return TTAStartupModel(scenario_for_authority(authority, slots=slots))


def observable(stats):
    """Every field of the statistics but the wall-clock time."""
    fields = dataclasses.asdict(stats)
    del fields["elapsed_seconds"]
    return fields


@pytest.mark.parametrize("max_states", [None, 100, 1000],
                         ids=["exhaustive", "max100", "max1000"])
@pytest.mark.parametrize("authority, slots", [
    *[(authority, 3) for authority in all_authorities()],
    (CouplerAuthority.PASSIVE, 4),
], ids=lambda value: getattr(value, "value", str(value)))
def test_level_loop_matches_tuple_fallback(monkeypatch, authority, slots,
                                           max_states):
    """The checker's level loop and the tuple BFS it falls back to
    without numpy report the same statistics, truncated or not."""
    pytest.importorskip("numpy", exc_type=ImportError)
    assert runs_level_loop(model(authority, slots))
    levels = explore(model(authority, slots), max_states=max_states)
    monkeypatch.setattr(encode, "_np", None)
    assert not runs_level_loop(model(authority, slots))
    fallback = explore(model(authority, slots), max_states=max_states)
    assert observable(levels) == observable(fallback)
    assert levels.truncated == (levels.states == max_states)


@pytest.mark.parametrize("authority, slots, row", [
    (CouplerAuthority.PASSIVE, 3, (875, 1577, 16, 8, 0)),
    (CouplerAuthority.FULL_SHIFTING, 4, (64269, 159339, 35, 16, 0)),
], ids=["passive-3", "full_shifting-4"])
def test_paper_model_rows(authority, slots, row):
    """States, transitions, diameter, max branching and deadlocks of the
    Section 4 model, as the tuple walk first printed them."""
    stats = explore(model(authority, slots))
    assert (stats.states, stats.transitions, stats.diameter,
            stats.max_branching, stats.deadlock_states) == row
    assert sum(stats.depth_histogram.values()) == stats.states
    assert not stats.truncated
