"""Differential tests: the packed engine expanding large BFS levels through
the batch kernel must decide exactly like the same engine calling
``packed_successors`` once per state -- same verdicts, state, transition
and depth counts, counterexamples (states *and* labels), frozen nodes,
limit behaviour, and progress callbacks.

The scalar side is the same model behind :class:`ScalarOnly`, a thin
proxy that hides ``packed_successors_batch``, so the checker's own
capability test routes every level through the per-state path."""

import pytest

from repro.conformance import SCENARIOS, conform_scenario
from repro.core.authority import CouplerAuthority, all_authorities
from repro.core.verification import VerificationResult
from repro.model.properties import no_clique_freeze
from repro.model.scenarios import (scenario_for_authority, trace1_scenario,
                                   trace2_scenario)
from repro.model.system_model import TTAStartupModel
from repro.modelcheck import checker as checker_module
from repro.modelcheck.checker import BATCH_MIN_LEVEL, InvariantChecker

pytest.importorskip("numpy", exc_type=ImportError)


class ScalarOnly:
    """The wrapped model minus its batch path."""

    def __init__(self, system):
        self._system = system

    def __getattr__(self, name):
        if name == "packed_successors_batch":
            raise AttributeError(name)
        return getattr(self._system, name)


def check_both(config, **limits):
    """``(batched, scalar)`` verification results for one configuration."""
    results = []
    for wrap in (lambda system: system, ScalarOnly):
        checker = InvariantChecker(wrap(TTAStartupModel(config)), **limits)
        results.append(VerificationResult(
            authority=config.authority, config=config,
            check=checker.check(no_clique_freeze(config))))
    return results


def observable(result):
    check = result.check
    steps = (None if check.counterexample is None else
             [(step.state, step.label) for step in check.counterexample.steps])
    return (check.engine, check.holds, check.truncated, check.states_explored,
            check.transitions_explored, check.depth_reached, steps,
            result.frozen_node())


MATRIX = {f"{authority.value}-slots{slots}-budget{budget}":
          (authority, slots, budget)
          for authority in all_authorities()
          for slots in (3, 4)
          for budget in (None, 1, 2)}


@pytest.mark.parametrize("name", sorted(MATRIX))
def test_batched_levels_match_scalar_on_matrix(name):
    authority, slots, budget = MATRIX[name]
    batched, scalar = check_both(scenario_for_authority(
        authority, slots=slots, out_of_slot_budget=budget))
    assert observable(batched) == observable(scalar)
    assert batched.check.engine == "packed"


@pytest.mark.parametrize("make_config", [trace1_scenario, trace2_scenario],
                         ids=["trace1", "trace2"])
def test_batched_levels_match_scalar_on_paper_traces(make_config):
    batched, scalar = check_both(make_config())
    assert observable(batched) == observable(scalar)
    assert not batched.property_holds


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_conformance_reports_match_scalar_trace(name):
    config = SCENARIOS[name].model_config()
    checker = InvariantChecker(ScalarOnly(TTAStartupModel(config)))
    trace = checker.check(no_clique_freeze(config)).counterexample
    scalar = conform_scenario(name, trace=trace)
    batched = conform_scenario(name)
    assert batched == scalar
    assert batched.conforms


def test_batch_path_runs_on_large_levels(monkeypatch):
    """The batched side really expands levels through the kernel -- only
    levels of at least BATCH_MIN_LEVEL states -- and still calls the
    scalar path for the small ones."""
    sizes = []
    scalar_calls = []
    batch = TTAStartupModel.packed_successors_batch
    scalar = TTAStartupModel.packed_successors

    def counting_batch(self, words, tails):
        sizes.append(len(words))
        return batch(self, words, tails)

    def counting_scalar(self, code):
        scalar_calls.append(code)
        return scalar(self, code)

    monkeypatch.setattr(TTAStartupModel, "packed_successors_batch",
                        counting_batch)
    monkeypatch.setattr(TTAStartupModel, "packed_successors", counting_scalar)
    batched, _ = check_both(scenario_for_authority(CouplerAuthority.PASSIVE))
    assert batched.check.states_explored == 14772
    assert sizes and min(sizes) >= BATCH_MIN_LEVEL
    assert scalar_calls


@pytest.mark.parametrize("limits", [{"max_states": 5000}, {"max_depth": 8}],
                         ids=["max_states", "max_depth"])
@pytest.mark.parametrize("authority", [CouplerAuthority.PASSIVE,
                                       CouplerAuthority.FULL_SHIFTING],
                         ids=["passive", "full_shifting"])
def test_limits_truncate_identically(authority, limits):
    batched, scalar = check_both(scenario_for_authority(
        authority, out_of_slot_budget=None), **limits)
    assert observable(batched) == observable(scalar)
    if authority is CouplerAuthority.PASSIVE:
        assert batched.check.truncated
    if "max_states" in limits and batched.property_holds:
        assert batched.check.states_explored == limits["max_states"]


def test_progress_callbacks_fire_identically():
    config = scenario_for_authority(CouplerAuthority.SMALL_SHIFTING)
    calls = {}
    for side, wrap in (("batched", lambda system: system),
                       ("scalar", ScalarOnly)):
        seen = calls[side] = []
        InvariantChecker(wrap(TTAStartupModel(config)),
                         progress=lambda states, depth: seen.append(
                             (states, depth)),
                         progress_interval=997).check(no_clique_freeze(config))
    assert calls["batched"] == calls["scalar"]
    assert len(calls["batched"]) == 14772 // 997


def test_unrepresentable_model_takes_the_scalar_path():
    """At slots=5 the node blocks overflow the kernel's uint64 words; the
    packed engine must stay scalar instead of failing."""
    config = scenario_for_authority(CouplerAuthority.PASSIVE, slots=5)
    system = TTAStartupModel(config)
    assert checker_module._batch_expander(system) is None
    batched, scalar = check_both(config, max_states=3000)
    assert observable(batched) == observable(scalar)
    assert batched.check.engine == "packed"
    assert batched.check.truncated
    assert batched.check.states_explored == 3000
