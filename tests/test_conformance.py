"""Tier-1 tests for the model <-> simulation conformance subsystem.

Both of the paper's counterexample traces (EXP-T1: duplicated cold-start
frame; EXP-T2: duplicated C-state frame) are replayed on the DES cluster
and checked for slot-level agreement with the model checker -- the
cross-validation the benchmark (EXP-S3) performs, promoted to the regular
test suite.
"""

import pytest

from repro.conformance import (SCENARIOS, TRACE1_REPLAY, TRACE2_REPLAY,
                               AgreementCheck, DesAbstraction,
                               check_conformance, conform_scenario,
                               model_clique_frozen, model_replay_labels,
                               model_replayed_kind, model_state_path,
                               phase_path)
from repro.core.verification import verify_config
from repro.obs.events import Freeze, Integrated, OutOfSlotReplay, StateChange

NODES = ["A", "B", "C", "D"]


@pytest.fixture(scope="module")
def trace1():
    result = verify_config(TRACE1_REPLAY.model_config())
    assert result.counterexample is not None
    return result.counterexample


@pytest.fixture(scope="module")
def trace2():
    result = verify_config(TRACE2_REPLAY.model_config())
    assert result.counterexample is not None
    return result.counterexample


@pytest.fixture(scope="module")
def trace1_report(trace1):
    return conform_scenario("trace1", trace=trace1)


@pytest.fixture(scope="module")
def trace2_report(trace2):
    return conform_scenario("trace2", trace=trace2)


# -- the paper's two counterexamples conform ----------------------------------


def test_trace1_des_conforms_to_model(trace1_report):
    assert trace1_report.conforms, trace1_report.summary()
    assert trace1_report.model_victim is not None
    assert trace1_report.des_victim is not None


def test_trace2_des_conforms_to_model(trace2_report):
    assert trace2_report.conforms, trace2_report.summary()
    assert trace2_report.model_victim is not None
    assert trace2_report.des_victim is not None


def test_all_four_quantities_are_checked(trace1_report):
    assert [check.name for check in trace1_report.checks] == [
        "property-verdict", "victim-phase-path",
        "integration-mechanism", "replay-count"]


def test_trace1_mechanism_is_the_duplicated_cold_start(trace1_report):
    mechanism = {check.name: check for check in trace1_report.checks}
    assert mechanism["integration-mechanism"].model_value == "cold_start"
    assert mechanism["replay-count"].des_value == "1"


def test_trace2_mechanism_is_the_duplicated_c_state(trace2_report):
    mechanism = {check.name: check for check in trace2_report.checks}
    assert mechanism["integration-mechanism"].model_value == "c_state"
    assert mechanism["replay-count"].des_value == "1"


def test_summary_renders_verdict(trace1_report):
    text = trace1_report.summary()
    assert "CONFORMS" in text
    assert text.count("[ok ]") == len(trace1_report.checks)


# -- model-side abstraction ---------------------------------------------------


def test_model_trace1_replays_one_cold_start(trace1):
    assert len(model_replay_labels(trace1)) == 1
    assert model_replayed_kind(trace1) == "cold_start"


def test_model_trace2_replays_one_c_state(trace2):
    assert len(model_replay_labels(trace2)) == 1
    assert model_replayed_kind(trace2) == "c_state"


def test_model_victim_path_ends_clique_frozen(trace1):
    victims = model_clique_frozen(trace1, NODES)
    assert victims
    path = model_state_path(trace1, victims[0])
    assert path[0] == "freeze"
    assert path[-1] == "freeze_clique"


# -- DES-side abstraction (unit level) ----------------------------------------


def test_phase_path_collapses_integrated_states():
    assert phase_path(["freeze", "init", "listen", "passive", "active",
                       "freeze_clique"]) == [
        "freeze", "init", "listen", "integrated", "freeze_clique"]


def test_phase_path_keeps_other_states():
    assert phase_path(["freeze", "listen", "listen", "cold_start"]) == [
        "freeze", "listen", "cold_start"]


def synthetic_stream():
    return [
        StateChange(0.0, "node:B", state="init"),
        StateChange(1.0, "node:B", state="listen"),
        OutOfSlotReplay(2.0, "coupler:coupler0", sender="A",
                        frame_kind="cold_start"),
        Integrated(3.0, "node:B", via="cold_start", slot=0),
        StateChange(3.0, "node:B", state="passive"),
        Freeze(4.0, "node:B", reason="clique_error", was_integrated=True),
    ]


def test_abstraction_builds_model_vocabulary_paths():
    abstraction = DesAbstraction.from_events(synthetic_stream())
    assert abstraction.state_path("B") == [
        "freeze", "init", "listen", "passive", "freeze_clique"]
    assert abstraction.current_state("B") == "freeze_clique"
    assert abstraction.integration_via("B") == "cold_start"
    assert abstraction.replay_count == 1
    assert abstraction.clique_frozen(NODES) == ["B"]


def test_abstraction_host_freeze_is_not_clique_freeze():
    events = [Freeze(1.0, "node:A", reason="host_command",
                     was_integrated=False)]
    abstraction = DesAbstraction.from_events(events)
    assert abstraction.current_state("A") == "freeze"
    assert abstraction.clique_frozen(NODES) == []


def test_unseen_node_stays_in_freeze():
    abstraction = DesAbstraction.from_events([])
    assert abstraction.state_path("D") == ["freeze"]


def test_agreement_check_flags_divergence():
    assert AgreementCheck("x", "1", "1").agrees
    assert not AgreementCheck("x", "1", "2").agrees


def test_empty_des_stream_diverges_from_counterexample(trace1):
    report = check_conformance(trace1, [], node_names=NODES)
    assert not report.conforms
    verdict = report.checks[0]
    assert verdict.name == "property-verdict"
    assert (verdict.model_value, verdict.des_value) == ("violated", "holds")


# -- scenario plumbing --------------------------------------------------------


def test_scenarios_registry_names():
    assert sorted(SCENARIOS) == ["trace1", "trace2"]


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError, match="unknown conformance scenario"):
        conform_scenario("trace9")


def test_build_cluster_plumbs_monitor_capacity():
    cluster = TRACE1_REPLAY.build_cluster(monitor_capacity=64)
    assert cluster.monitor.capacity == 64
