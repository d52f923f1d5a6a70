"""Adversarial fault families: injector wiring, containment asymmetry,
and the seeded campaign presets."""

import json

import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.faults.campaign import (ADVERSARIAL_PRESETS, injection_cluster,
                                   run_adversarial_preset)
from repro.faults.injector import apply_fault
from repro.faults.types import FaultDescriptor, FaultType
from repro.obs.monitors import CollisionAttackMonitor, VerdictMonitor
from repro.ttp.controller import NodeFaultBehavior


def test_injector_wires_collision_fields():
    spec = apply_fault(ClusterSpec(), FaultDescriptor(
        FaultType.MID_FRAME_JAMMER, target="B", jam_offset=12.5))
    config = spec.node_configs["B"]
    assert config.fault is NodeFaultBehavior.MID_FRAME_JAMMER
    assert config.jam_offset == 12.5


def test_injector_wires_byzantine_fields():
    spec = apply_fault(ClusterSpec(), FaultDescriptor(
        FaultType.BYZANTINE_CLOCK, target="C", byzantine_mode="oscillate",
        byzantine_magnitude=3.5, fault_start_time=100.0))
    config = spec.node_configs["C"]
    assert config.fault is NodeFaultBehavior.BYZANTINE_CLOCK
    assert config.byzantine_mode == "oscillate"
    assert config.byzantine_magnitude == 3.5


def test_descriptor_rejects_bad_adversarial_fields():
    with pytest.raises(ValueError):
        FaultDescriptor(FaultType.BYZANTINE_CLOCK, target="A",
                        byzantine_mode="sneaky")
    with pytest.raises(ValueError):
        FaultDescriptor(FaultType.MID_FRAME_JAMMER, target="A",
                        jam_offset=-1.0)
    with pytest.raises(ValueError):
        FaultDescriptor(FaultType.BYZANTINE_CLOCK, target="A",
                        byzantine_magnitude=-0.5)


@pytest.mark.parametrize("fault_type", [FaultType.COLLIDING_SENDER,
                                        FaultType.MID_FRAME_JAMMER])
def test_collision_attack_bus_propagates_star_contains(fault_type):
    """The paper's Section 4 asymmetry, replayed with an active attacker:
    overlapping transmissions corrupt every bus receiver, while the star's
    slot-windowed couplers starve the jams."""
    verdicts = {}
    for topology in ("bus", "star"):
        cluster = injection_cluster(
            FaultDescriptor(fault_type, target="B"), topology)
        victims = VerdictMonitor.for_cluster(cluster)
        attack = CollisionAttackMonitor.for_cluster(cluster)
        cluster.power_on()
        cluster.run(rounds=40.0)
        assert attack.attack_observed, (fault_type, topology)
        verdicts[topology] = (victims.victims(), attack.blocked_jams)
    bus_victims, bus_blocked = verdicts["bus"]
    star_victims, star_blocked = verdicts["star"]
    assert bus_victims == ["A", "C", "D"]
    assert bus_blocked == 0
    assert star_victims == []
    assert star_blocked > 0


def test_collision_jams_are_fault_gated():
    """A healthy cluster emits no collision_jam events."""
    cluster = Cluster(ClusterSpec(topology="bus"))
    cluster.power_on()
    cluster.run(rounds=10.0)
    assert cluster.monitor.kind_counts.get("collision_jam", 0) == 0


def test_preset_registry_and_unknown_name():
    assert sorted(ADVERSARIAL_PRESETS) == [
        "adversarial-byzantine", "adversarial-collision",
        "adversarial-monitors"]
    with pytest.raises(ValueError, match="unknown adversarial preset"):
        run_adversarial_preset("adversarial-nope")


def test_collision_preset_holds_and_is_deterministic():
    result = run_adversarial_preset("adversarial-collision", seed=0)
    assert result.holds, result.verdicts
    again = run_adversarial_preset("adversarial-collision", seed=0)
    assert again.rows == result.rows
    assert again.verdicts == result.verdicts


def test_byzantine_preset_holds():
    result = run_adversarial_preset("adversarial-byzantine", seed=0,
                                    rounds=15.0)
    assert result.holds, result.verdicts
    assert result.verdicts["one_drag_tolerated"]
    assert result.verdicts["two_drags_flagged"]
    assert result.verdicts["one_two_faced_flagged"]


def test_monitors_preset_holds():
    result = run_adversarial_preset("adversarial-monitors", seed=0)
    assert result.holds, result.verdicts
    assert result.verdicts["full_rate_agrees"]
    assert result.verdicts["full_rate_draw_free"]


def test_preset_jsonl_export_round_trips(tmp_path):
    result = run_adversarial_preset("adversarial-monitors", seed=0)
    path = tmp_path / "preset.jsonl"
    written = result.export_jsonl(str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == written
    header = json.loads(lines[0])
    assert header["preset"] == "adversarial-monitors"
    assert header["holds"] is True
    streams = {json.loads(line)["stream"] for line in lines[1:]}
    assert "rate_1" in streams
