"""Differential tests: the packed engine must be observationally identical
to the tuple engine -- same verdicts, same exploration counts, same
shortest counterexamples (states *and* labels) -- on the paper's own
configurations.  The packed path is an optimisation, never a semantics
change."""

import pytest

from repro.core.authority import CouplerAuthority, all_authorities
from repro.core.verification import expected_verdicts, verify_authority
from repro.model.properties import no_clique_freeze
from repro.model.scenarios import (scenario_for_authority, trace1_scenario,
                                   trace2_scenario)
from repro.model.system_model import TTAStartupModel
from repro.modelcheck.checker import InvariantChecker, check_invariant
from repro.modelcheck.model import ExplicitTransitionSystem
from repro.modelcheck.state import StateSpace, Variable


def both_engines(config):
    results = {}
    for engine in ("tuple", "packed"):
        system = TTAStartupModel(config)
        checker = InvariantChecker(system, engine=engine)
        results[engine] = checker.check(no_clique_freeze(config))
    return results["tuple"], results["packed"]


def assert_identical(tuple_result, packed_result):
    assert tuple_result.engine == "tuple"
    assert packed_result.engine == "packed"
    assert packed_result.holds == tuple_result.holds
    assert packed_result.states_explored == tuple_result.states_explored
    assert packed_result.transitions_explored == tuple_result.transitions_explored
    assert packed_result.depth_reached == tuple_result.depth_reached
    assert packed_result.truncated == tuple_result.truncated
    if tuple_result.counterexample is None:
        assert packed_result.counterexample is None
    else:
        tuple_steps = [(step.state, step.label)
                       for step in tuple_result.counterexample.steps]
        packed_steps = [(step.state, step.label)
                        for step in packed_result.counterexample.steps]
        assert packed_steps == tuple_steps


@pytest.mark.parametrize("authority", all_authorities(),
                         ids=[a.value for a in all_authorities()])
def test_engines_identical_on_verification_matrix(authority):
    tuple_result, packed_result = both_engines(scenario_for_authority(authority))
    assert_identical(tuple_result, packed_result)
    assert tuple_result.holds == expected_verdicts()[authority]


@pytest.mark.parametrize("make_config, expected_length",
                         [(trace1_scenario, None), (trace2_scenario, None)],
                         ids=["trace1", "trace2"])
def test_engines_identical_on_paper_traces(make_config, expected_length):
    tuple_result, packed_result = both_engines(make_config())
    assert_identical(tuple_result, packed_result)
    assert not tuple_result.holds
    assert len(packed_result.counterexample) == len(tuple_result.counterexample)


def test_engine_override_via_verify_authority():
    tuple_run = verify_authority(CouplerAuthority.FULL_SHIFTING, engine="tuple")
    packed_run = verify_authority(CouplerAuthority.FULL_SHIFTING,
                                  engine="packed")
    assert tuple_run.check.engine == "tuple"
    assert packed_run.check.engine == "packed"
    assert len(packed_run.counterexample) == len(tuple_run.counterexample)


def test_unknown_engine_rejected():
    config = scenario_for_authority(CouplerAuthority.PASSIVE)
    with pytest.raises(ValueError, match="engine"):
        InvariantChecker(TTAStartupModel(config), engine="quantum")


def test_packed_engine_via_adapter_on_explicit_system():
    """Systems without a native packed path go through the adapter and
    still agree with the tuple engine."""
    space = StateSpace([Variable("n", domain=tuple(range(12)))])
    transitions = {(value,): [((value + 1,), {"step": value})]
                   for value in range(11)}
    transitions[(11,)] = []
    system = ExplicitTransitionSystem(space, [(0,)], transitions)
    tuple_result = check_invariant(system, lambda view: view.n < 7,
                                   engine="tuple")
    packed_result = check_invariant(system, lambda view: view.n < 7,
                                    engine="packed")
    assert packed_result.engine == "packed"
    assert_identical(tuple_result, packed_result)
    assert len(packed_result.counterexample) == 7


def test_successors_batch_matches_successors():
    config = scenario_for_authority(CouplerAuthority.SMALL_SHIFTING)
    system = TTAStartupModel(config)
    for state in system.initial_states():
        expected = []
        for transition in system.successors(state):
            if transition.target not in expected:
                expected.append(transition.target)
        assert system.successors_batch(state) == expected
