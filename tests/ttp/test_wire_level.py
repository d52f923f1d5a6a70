"""Wire-level reception: the cluster running on real bits.

Every controller here is a :class:`WireLevelController`: each received
frame is serialized, channel corruption becomes an actual bit flip, and
the receiver decodes and CRC-checks the wire bits -- N-frames validating
only through the implicit C-state seed, exactly the mechanism the paper
describes.  The product judge compares C-states directly; these clusters
show the two readings agree.
"""

import pytest

import repro.cluster
from repro.cluster import Cluster, ClusterSpec
from repro.core.authority import CouplerAuthority
from repro.network.star_coupler import CouplerFault
from repro.ttp.constants import ControllerStateName
from repro.ttp.medl import Medl, SlotDescriptor
from tests.ttp.wire_codec import WireLevelController

NODES = ["A", "B", "C", "D"]


@pytest.fixture(autouse=True)
def wire_level_controllers(monkeypatch):
    """Every cluster built in this module receives through the codec."""
    monkeypatch.setattr(repro.cluster, "TTPController", WireLevelController)


def build(**kwargs):
    spec = ClusterSpec(**kwargs)
    cluster = Cluster(spec)
    cluster.power_on()
    return cluster


def test_wire_level_startup_converges():
    cluster = build(topology="star")
    assert all(type(controller) is WireLevelController
               for controller in cluster.controllers.values())
    cluster.run(rounds=30)
    assert all(state is ControllerStateName.ACTIVE
               for state in cluster.states().values())
    assert cluster.healthy_victims() == []


def test_wire_level_bus_startup_converges():
    cluster = build(topology="bus")
    cluster.run(rounds=30)
    assert cluster.healthy_victims() == []


def test_wire_level_corruption_caught_by_crc():
    """A corrupted channel flips a real bit; the CRC catches it and the
    redundant channel keeps the cluster healthy."""
    cluster = build(topology="star", channel_corrupt_probability=0.02, seed=2)
    cluster.run(rounds=40)
    assert sum(channel.corrupted_count
               for channel in cluster.topology.channels) > 0
    assert cluster.healthy_victims() == []


def test_wire_level_mode_change_propagates():
    """The DMC travels in the real header field and survives the wire."""
    modes = [Medl.uniform(NODES, slot_duration=400.0, frame_bits=76),
             Medl(slots=tuple(
                 SlotDescriptor(slot_id=index + 1, sender=name,
                                duration=400.0, frame_bits=2076)
                 for index, name in enumerate(NODES)))]
    spec = ClusterSpec(modes=modes, slot_duration=400.0)
    cluster = Cluster(spec)
    cluster.power_on()
    cluster.run(rounds=20)
    cluster.controllers["B"].request_mode_change(1)
    cluster.run(rounds=4)
    assert all(controller.current_mode == 1
               for controller in cluster.controllers.values())


def test_wire_level_application_data_roundtrips():
    cluster = build(topology="star", slot_duration=400.0)
    cluster.controllers["A"].cni.post_int(0xBEEF, 16)
    cluster.run(rounds=25)
    assert cluster.controllers["D"].cni.read(1).as_int() == 0xBEEF


def test_wire_level_n_frame_cluster():
    """A cluster whose steady state runs on 28-bit N-frames: receivers
    validate each frame purely through the implicit-C-state CRC seed."""
    medl = Medl(slots=tuple(
        SlotDescriptor(slot_id=index + 1, sender=name, duration=100.0,
                       frame_bits=28, explicit_cstate=False)
        for index, name in enumerate(NODES)))
    spec = ClusterSpec(modes=[medl])
    cluster = Cluster(spec)
    cluster.power_on()
    cluster.run(rounds=40)
    assert all(state is ControllerStateName.ACTIVE
               for state in cluster.states().values())
    assert cluster.healthy_victims() == []


def test_wire_level_out_of_slot_failure_still_reproduces():
    """The paper's failure is not an artifact of object-level frames."""
    spec = ClusterSpec(topology="star",
                       authority=CouplerAuthority.FULL_SHIFTING,
                       coupler_faults=[CouplerFault.OUT_OF_SLOT,
                                       CouplerFault.NONE])
    cluster = Cluster(spec)
    cluster.power_on()
    cluster.run(rounds=30)
    assert cluster.clique_frozen_nodes() != []
