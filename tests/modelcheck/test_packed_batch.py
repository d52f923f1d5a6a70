"""Differential tests: the array engine behind ``engine="auto"`` must
decide exactly like the scalar packed engine (``engine="packed"``), which
walks one state and one transition at a time -- same verdicts, state,
transition and depth counts, truncation, counterexamples (states *and*
labels), frozen nodes, limit behaviour, and progress callbacks.  Only the
``engine`` field tells them apart."""

import pytest

from repro.conformance import SCENARIOS, conform_scenario
from repro.core.authority import CouplerAuthority, all_authorities
from repro.core.verification import VerificationResult
from repro.model.properties import no_clique_freeze
from repro.model.scenarios import (scenario_for_authority, trace1_scenario,
                                   trace2_scenario)
from repro.model.system_model import TTAStartupModel
from repro.modelcheck.checker import BATCH_MIN_LEVEL, InvariantChecker
from repro.modelcheck.vector import VectorKernel

pytest.importorskip("numpy", exc_type=ImportError)


def check_both(config, **limits):
    """``(array, scalar)`` verification results for one configuration:
    ``engine="auto"`` and ``engine="packed"`` on fresh models."""
    results = []
    for engine in ("auto", "packed"):
        checker = InvariantChecker(TTAStartupModel(config), engine=engine,
                                   **limits)
        results.append(VerificationResult(
            authority=config.authority, config=config,
            check=checker.check(no_clique_freeze(config))))
    return results


def observable(result):
    """Every field of the check but ``engine`` and the wall-clock time."""
    check = result.check
    steps = (None if check.counterexample is None else
             [(step.state, step.label) for step in check.counterexample.steps])
    return (check.holds, check.truncated, check.states_explored,
            check.transitions_explored, check.depth_reached, steps,
            result.frozen_node())


def assert_same(array, scalar):
    assert observable(array) == observable(scalar)
    assert array.check.engine == "vectorized"
    assert scalar.check.engine == "packed"


MATRIX = {f"{authority.value}-slots{slots}-budget{budget}":
          (authority, slots, budget)
          for authority in all_authorities()
          for slots in (3, 4)
          for budget in (None, 1, 2)}


@pytest.mark.parametrize("name", sorted(MATRIX))
def test_batched_levels_match_scalar_on_matrix(name):
    authority, slots, budget = MATRIX[name]
    array, scalar = check_both(scenario_for_authority(
        authority, slots=slots, out_of_slot_budget=budget))
    assert_same(array, scalar)


@pytest.mark.parametrize("make_config", [trace1_scenario, trace2_scenario],
                         ids=["trace1", "trace2"])
def test_batched_levels_match_scalar_on_paper_traces(make_config):
    array, scalar = check_both(make_config())
    assert_same(array, scalar)
    assert not array.property_holds


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_conformance_reports_match_scalar_trace(name):
    config = SCENARIOS[name].model_config()
    checker = InvariantChecker(TTAStartupModel(config), engine="packed")
    trace = checker.check(no_clique_freeze(config)).counterexample
    scalar = conform_scenario(name, trace=trace)
    array = conform_scenario(name)
    assert array == scalar
    assert array.conforms


def test_batch_path_runs_on_large_levels(monkeypatch):
    """The array engine really expands levels through the kernel -- only
    levels of at least BATCH_MIN_LEVEL states -- and still calls the
    scalar path for the small ones."""
    sizes = []
    scalar_calls = []
    batch = VectorKernel.successor_level
    scalar = TTAStartupModel.packed_successors

    def counting_batch(self, words, tails):
        sizes.append(len(words))
        return batch(self, words, tails)

    def counting_scalar(self, code):
        scalar_calls.append(code)
        return scalar(self, code)

    monkeypatch.setattr(VectorKernel, "successor_level", counting_batch)
    monkeypatch.setattr(TTAStartupModel, "packed_successors", counting_scalar)
    config = scenario_for_authority(CouplerAuthority.PASSIVE)
    result = InvariantChecker(TTAStartupModel(config)).check(
        no_clique_freeze(config))
    assert result.states_explored == 14772
    assert sizes and min(sizes) >= BATCH_MIN_LEVEL
    assert scalar_calls


@pytest.mark.parametrize("limits", [{"max_states": 5000}, {"max_depth": 8}],
                         ids=["max_states", "max_depth"])
@pytest.mark.parametrize("authority", all_authorities(),
                         ids=[authority.value
                              for authority in all_authorities()])
def test_limits_truncate_identically(authority, limits):
    array, scalar = check_both(scenario_for_authority(
        authority, out_of_slot_budget=None), **limits)
    assert_same(array, scalar)
    if authority is CouplerAuthority.PASSIVE:
        assert array.check.truncated
    if "max_states" in limits and array.property_holds:
        assert array.check.states_explored == limits["max_states"]


def test_progress_callbacks_fire_identically():
    config = scenario_for_authority(CouplerAuthority.SMALL_SHIFTING)
    calls = {}
    for engine in ("auto", "packed"):
        seen = calls[engine] = []
        InvariantChecker(TTAStartupModel(config), engine=engine,
                         progress=lambda states, depth: seen.append(
                             (states, depth)),
                         progress_interval=997).check(no_clique_freeze(config))
    assert calls["auto"] == calls["packed"]
    assert len(calls["auto"]) == 14772 // 997


def test_unrepresentable_model_takes_the_scalar_path():
    """At slots=5 the node blocks overflow the kernel's uint64 words;
    ``auto`` must fall back to the scalar packed engine instead of
    failing."""
    config = scenario_for_authority(CouplerAuthority.PASSIVE, slots=5)
    auto, scalar = check_both(config, max_states=3000)
    assert observable(auto) == observable(scalar)
    assert auto.check.engine == "packed"
    assert auto.check.truncated
    assert auto.check.states_explored == 3000
