"""Integration tests for the TTP/C controller via the cluster assembly."""

import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.core.authority import CouplerAuthority
from repro.gen.config import GenConfig
from repro.gen.materialize import materialize
from repro.network.star_coupler import CouplerFault
from repro.ttp.constants import ControllerStateName
from repro.ttp.controller import ControllerConfig, FreezeReason, NodeFaultBehavior


def run_cluster(spec, rounds=30.0, power_on=True):
    cluster = Cluster(spec)
    if power_on:
        cluster.power_on()
    cluster.run(rounds=rounds)
    return cluster


def test_healthy_star_cluster_reaches_all_active():
    cluster = run_cluster(ClusterSpec(topology="star"))
    assert all(state is ControllerStateName.ACTIVE
               for state in cluster.states().values())
    assert cluster.healthy_victims() == []


def test_healthy_bus_cluster_reaches_all_active():
    cluster = run_cluster(ClusterSpec(topology="bus"))
    assert all(state is ControllerStateName.ACTIVE
               for state in cluster.states().values())
    assert cluster.healthy_victims() == []


def test_unpowered_cluster_stays_frozen():
    cluster = run_cluster(ClusterSpec(topology="star"), power_on=False)
    assert all(state is ControllerStateName.FREEZE
               for state in cluster.states().values())


def test_startup_sequence_first_node_cold_starts():
    cluster = run_cluster(ClusterSpec(topology="star"), rounds=10)
    cold_starters = [record.source for record in cluster.monitor.select(kind="state")
                     if record.details.get("state") == "cold_start"]
    assert cold_starters and cold_starters[0] == "node:A"


def test_big_bang_nodes_integrate_on_second_cold_start():
    cluster = run_cluster(ClusterSpec(topology="star"), rounds=10)
    sends = cluster.monitor.select(source="node:A", kind="send")
    cold_start_sends = [record for record in sends
                        if record.details["frame_kind"] == "cold_start"]
    integrations = cluster.monitor.select(kind="integrated")
    assert len(cold_start_sends) >= 2
    first_integration = min(record.time for record in integrations)
    assert first_integration > cold_start_sends[1].time


def test_integrating_nodes_pass_through_passive():
    cluster = run_cluster(ClusterSpec(topology="star"), rounds=10)
    for node in ("B", "C", "D"):
        states = [record.details["state"] for record in
                  cluster.monitor.select(source=f"node:{node}", kind="state")]
        assert "passive" in states
        assert states.index("passive") < states.index("active")


def test_all_nodes_send_in_their_slots_when_active():
    cluster = run_cluster(ClusterSpec(topology="star"), rounds=20)
    for node in ("A", "B", "C", "D"):
        sends = cluster.monitor.select(source=f"node:{node}", kind="send")
        cstate_sends = [record for record in sends
                        if record.details["frame_kind"] == "c_state"]
        assert len(cstate_sends) >= 5


def test_steady_state_has_no_clique_minority():
    cluster = run_cluster(ClusterSpec(topology="star"), rounds=30)
    verdicts = {record.details["verdict"]
                for record in cluster.monitor.select(kind="clique_test",
                                                     after=cluster.medl.round_duration() * 10)}
    assert verdicts == {"majority"}


def test_membership_converges_to_full_cluster():
    cluster = run_cluster(ClusterSpec(topology="star"), rounds=30)
    for controller in cluster.controllers.values():
        assert controller.view.membership_set() == frozenset({1, 2, 3, 4})


def test_round_anchor_consistent_across_nodes():
    cluster = run_cluster(ClusterSpec(topology="star"), rounds=30)
    round_duration = cluster.medl.round_duration()
    phases = {controller.round_anchor % round_duration
              for controller in cluster.controllers.values()}
    assert len(phases) == 1


def test_host_freeze_is_not_a_clique_freeze():
    cluster = Cluster(ClusterSpec(topology="star"))
    cluster.power_on()
    cluster.run(rounds=20)
    controller = cluster.controllers["B"]
    controller.host_freeze()
    assert controller.state is ControllerStateName.FREEZE
    assert controller.freeze_reason is FreezeReason.HOST_COMMAND
    assert cluster.clique_frozen_nodes() == []


def test_out_of_slot_replay_freezes_healthy_nodes():
    """EXP-S3: the DES counterpart of the model-checking violation."""
    spec = ClusterSpec(topology="star", authority=CouplerAuthority.FULL_SHIFTING,
                       coupler_faults=[CouplerFault.OUT_OF_SLOT, CouplerFault.NONE])
    cluster = run_cluster(spec, rounds=30)
    assert cluster.clique_frozen_nodes() != []
    assert cluster.healthy_victims() != []


def test_out_of_slot_fault_requires_full_shifting():
    spec = ClusterSpec(topology="star", authority=CouplerAuthority.SMALL_SHIFTING,
                       coupler_faults=[CouplerFault.OUT_OF_SLOT, CouplerFault.NONE])
    with pytest.raises(ValueError):
        Cluster(spec)


def test_coupler_silence_fault_tolerated_by_redundant_channel():
    spec = ClusterSpec(topology="star",
                       coupler_faults=[CouplerFault.SILENCE, CouplerFault.NONE])
    cluster = run_cluster(spec, rounds=30)
    assert cluster.healthy_victims() == []
    assert all(state is ControllerStateName.ACTIVE
               for state in cluster.states().values())


def test_coupler_bad_frame_fault_tolerated_by_redundant_channel():
    spec = ClusterSpec(topology="star",
                       coupler_faults=[CouplerFault.BAD_FRAME, CouplerFault.NONE])
    cluster = run_cluster(spec, rounds=30)
    assert cluster.healthy_victims() == []


def test_two_faulty_couplers_rejected_by_fault_hypothesis():
    spec = ClusterSpec(topology="star",
                       coupler_faults=[CouplerFault.SILENCE, CouplerFault.SILENCE])
    with pytest.raises(ValueError):
        Cluster(spec)


def test_late_node_integrates_into_running_cluster():
    spec = ClusterSpec(topology="star",
                       power_on_delays={"A": 0.0, "B": 37.0, "C": 74.0, "D": 5000.0})
    cluster = run_cluster(spec, rounds=40)
    assert cluster.controllers["D"].state is ControllerStateName.ACTIVE
    integrations = cluster.monitor.select(source="node:D", kind="integrated")
    assert integrations and integrations[0].details["via"] == "c_state"


def test_babbling_node_contained_by_central_guardian():
    spec = ClusterSpec(topology="star")
    spec.node_configs["B"] = ControllerConfig(
        fault=NodeFaultBehavior.BABBLING_IDIOT)
    cluster = run_cluster(spec, rounds=40)
    assert cluster.healthy_victims() == []
    blocked = sum(coupler.stats.blocked_out_of_window
                  for coupler in cluster.topology.couplers)
    assert blocked > 0


def test_cluster_spec_rejects_unknown_topology():
    with pytest.raises(ValueError):
        Cluster(ClusterSpec(topology="ring"))


def test_each_controller_keeps_one_tick_event():
    """A tick re-arms its own event: once every node runs slot-synchronously
    no tick allocates, and the fired-event count is unchanged by it.

    The pinned count is every tick plus one completion event per channel
    copy of each transmission: the two replicated channels post their
    completions separately on the engine queue (10,825 while one shared
    wake event completed every copy due at one instant)."""
    cluster = Cluster(materialize(GenConfig(nodes=16, seed=0)))
    cluster.power_on()
    cluster.run(rounds=10)
    ticks = {name: controller._tick_event
             for name, controller in cluster.controllers.items()}
    assert all(event is not None for event in ticks.values())
    cluster.run(rounds=30)
    assert all(controller._tick_event is ticks[name]
               for name, controller in cluster.controllers.items())
    assert cluster.sim.fired_count == 11432
    assert len(cluster.integrated_nodes()) == 16


def test_a_freezing_tick_rearms_nothing():
    spec = ClusterSpec(topology="star", authority=CouplerAuthority.FULL_SHIFTING,
                       coupler_faults=[CouplerFault.OUT_OF_SLOT, CouplerFault.NONE])
    cluster = run_cluster(spec, rounds=30)
    frozen = cluster.clique_frozen_nodes()
    assert frozen
    assert all(cluster.controllers[name]._tick_event is None
               for name in frozen)
