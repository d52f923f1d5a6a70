"""Oracle tests: the online verdict monitor == the post-hoc trace queries.

The campaign and analysis layers evaluate their verdicts online, in a
single pass over the live event stream.  These tests compare the full-rate
:class:`VerdictMonitor` with independent answers: across every EXP-S2 cell
and the EXP-S4 asymmetry scenarios its victims equal the post-hoc
:meth:`repro.cluster.Cluster.healthy_victims` query over final controller
state, and its startup and Section 5.1 verdicts equal queries over the
retained ``state``/``freeze`` records (``conftest.py``).  The online
verdicts also survive a bounded ring-buffer bus and a JSONL
export/import round trip.
"""

import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.faults.campaign import DEFAULT_FAULTS, injection_cluster
from repro.faults.injector import apply_fault
from repro.faults.types import FaultDescriptor, FaultType
from repro.obs.events import Activated, StateChange
from repro.obs.monitors import VerdictMonitor
from repro.sim.monitor import TraceMonitor


def run_cell(fault, topology, rounds=40.0):
    """One EXP-S2 campaign cell with an attached online verdict monitor."""
    cluster = injection_cluster(fault, topology)
    online = VerdictMonitor.for_cluster(cluster)
    cluster.power_on()
    cluster.run(rounds=rounds)
    return cluster, online


@pytest.mark.parametrize("topology", ["bus", "star"])
@pytest.mark.parametrize("fault", DEFAULT_FAULTS,
                         ids=[fault.fault_type.value for fault in DEFAULT_FAULTS])
def test_exp_s2_online_equals_post_hoc(fault, topology,
                                      assert_matches_post_hoc):
    cluster, online = run_cell(fault, topology)
    assert_matches_post_hoc(online, cluster)


def _blocking_cluster(topology):
    """The EXP-S4 clusters of ``guardian_vs_coupler_blocking``."""
    if topology == "bus":
        spec = apply_fault(ClusterSpec(topology="bus"), FaultDescriptor(
            FaultType.GUARDIAN_BLOCK_ALL, target="B"))
    else:
        spec = apply_fault(ClusterSpec(topology="star"), FaultDescriptor(
            FaultType.COUPLER_SILENCE, target="0"))
    return Cluster(spec)


@pytest.mark.parametrize("topology", ["bus", "star"])
def test_exp_s4_online_equals_post_hoc(topology, assert_matches_post_hoc):
    cluster = _blocking_cluster(topology)
    online = VerdictMonitor.for_cluster(cluster)
    cluster.power_on()
    cluster.run(rounds=40.0)
    assert_matches_post_hoc(online, cluster)


def test_online_verdict_survives_ring_buffer():
    """The post-hoc query needs the whole trace retained; the online
    monitor does not -- a tightly bounded bus yields the same victims."""
    fault = DEFAULT_FAULTS[1]  # masquerade: a non-empty bus victim list
    cluster = injection_cluster(fault, "bus")
    unbounded = VerdictMonitor.for_cluster(cluster)
    cluster.power_on()
    cluster.run(rounds=40.0)
    reference = unbounded.victims()
    assert reference  # the cell propagates: a real verdict is compared

    spec = apply_fault(ClusterSpec(topology="bus", monitor_capacity=32), fault)
    spec.power_on_delays = dict(cluster.spec.power_on_delays)
    bounded_cluster = Cluster(spec)
    bounded = VerdictMonitor.for_cluster(bounded_cluster)
    bounded_cluster.power_on()
    bounded_cluster.run(rounds=40.0)
    assert bounded_cluster.monitor.dropped_count > 0
    assert bounded.victims() == reference


def test_victims_from_jsonl_replay(tmp_path):
    cluster, online = run_cell(DEFAULT_FAULTS[1], "bus")
    path = str(tmp_path / "events.jsonl")
    cluster.monitor.export_jsonl(path)

    replayed = VerdictMonitor(node_names=online.node_names,
                              healthy_nodes=online.healthy_nodes,
                              round_duration=online.round_duration)
    replayed.replay(TraceMonitor.read_jsonl(path))
    assert replayed.victims() == online.victims()


def test_detach_stops_updates():
    cluster = Cluster(ClusterSpec(topology="star"))
    online = VerdictMonitor.for_cluster(cluster)
    online.detach()
    assert cluster.monitor.listener_count == 0
    cluster.power_on()
    cluster.run(rounds=10.0)
    # Detached before any event: nobody ever activated from its view.
    assert online.victims() == list(cluster.controllers)


def test_startup_monitor_matches_post_hoc_query(post_hoc_all_active_time):
    cluster = Cluster(ClusterSpec(topology="star"))
    startup = VerdictMonitor.for_cluster(cluster)
    cluster.power_on()
    cluster.run(rounds=10.0)

    assert startup.completed
    expected = post_hoc_all_active_time(cluster)
    assert expected is not None
    assert startup.all_active_time() == expected


def test_startup_monitor_incomplete_before_running():
    cluster = Cluster(ClusterSpec(topology="star"))
    startup = VerdictMonitor.for_cluster(cluster)
    assert not startup.completed
    assert startup.all_active_time() is None


def test_property_monitor_holds_on_healthy_cluster(post_hoc_violations):
    cluster = Cluster(ClusterSpec(topology="star"))
    prop = VerdictMonitor.for_cluster(cluster)
    cluster.power_on()
    cluster.run(rounds=10.0)
    assert post_hoc_violations(cluster) == []
    assert prop.holds
    assert prop.violations == []


def test_property_monitor_catches_trace1_violation(post_hoc_violations):
    from repro.conformance import TRACE1_REPLAY

    cluster = TRACE1_REPLAY.build_cluster()
    prop = VerdictMonitor.for_cluster(cluster)
    cluster.power_on()
    cluster.run(rounds=TRACE1_REPLAY.rounds)
    expected = post_hoc_violations(cluster)
    assert {violation.reason for violation in expected} == {"clique_error"}
    assert not prop.holds
    assert prop.violations == expected


@pytest.mark.parametrize("node_names, settings", [
    (["A"], {"round_duration": 0.0}),
    (["A"], {"round_duration": -1.0}),
    (["A"], {"round_duration": float("nan")}),
    (["A"], {"grid_tolerance": -1.0}),
    (["A"], {"sampling_rate": 0.0}),
    (["A"], {"sampling_rate": 1.5}),
    ([], {"sampling_rate": 7.0}),
    ([], {"round_duration": -1.0, "sampling_rate": 7.0}),
], ids=["zero-round", "negative-round", "nan-round", "negative-tolerance",
        "zero-rate", "rate-above-one", "no-nodes-rate-7",
        "no-nodes-negative-round"])
def test_verdict_monitor_rejects_bad_construction(node_names, settings):
    """Bad settings fail at construction, whatever ``node_names`` is --
    never mid-stream (a zero round duration used to surface as a float
    modulo error on the first replayed cold-start grid)."""
    arguments = {"round_duration": 400.0, **settings}
    with pytest.raises(ValueError):
        VerdictMonitor(node_names, set(node_names), **arguments)


def test_verdict_monitor_folds_only_watched_nodes():
    monitor = VerdictMonitor(["A"], {"A"}, round_duration=400.0)
    monitor.on_event(StateChange(time=1.0, source="node:B", state="active"))
    monitor.on_event(StateChange(time=1.0, source="coupler:0",
                                 state="active"))
    monitor.on_event(Activated(time=2.0, source="node:A", round_start=3.0))
    assert monitor.sampled_events == 1
    assert not monitor.completed  # B's activation was not A's
    assert monitor.victims() == []  # A activated, on the only grid seen
