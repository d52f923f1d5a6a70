"""Decentralized monitors: full-rate exactness, sampling, export.

At sampling rate 1.0 the per-node network must reproduce the verdicts of
the central, retained trace *exactly* -- the post-hoc oracles
(:meth:`repro.cluster.Cluster.healthy_victims` and the ``state``/
``freeze`` record queries of ``conftest.py``), pinned on both paper
conformance traces and on an adversarial cluster with real victims.
"""

import pytest

from repro.conformance import SCENARIOS
from repro.faults.campaign import injection_cluster
from repro.faults.types import FaultDescriptor, FaultType
from repro.obs.decentralized import DecentralizedMonitorNetwork
from repro.sim.monitor import TraceMonitor


def replay_decentralized_verdicts(events):
    """Fold an exported ``decentralized_verdict`` stream back into a
    per-node summary (last verdict per node wins, matching the monitors'
    own monotonic updates)."""
    summary = {}
    for event in events:
        if event.kind != "decentralized_verdict":
            continue
        detail = event.details
        summary[detail["node"]] = {
            "verdict": detail["verdict"],
            "detail": detail["detail"],
            "sampling_rate": detail["sampling_rate"],
            "time": event.time,
        }
    return summary


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_full_rate_matches_central_on_conformance_traces(
        scenario, assert_matches_post_hoc):
    cluster = SCENARIOS[scenario].build_cluster(monitor_capacity=60000)
    network = DecentralizedMonitorNetwork.for_cluster(cluster,
                                                      sampling_rate=1.0)
    cluster.power_on()
    cluster.run(rounds=30.0)
    assert not network.holds  # each trace forces a healthy node to freeze
    assert_matches_post_hoc(network, cluster)


def test_full_rate_matches_central_under_collision_attack(
        assert_matches_post_hoc):
    cluster = injection_cluster(
        FaultDescriptor(FaultType.COLLIDING_SENDER, target="B"), "bus")
    network = DecentralizedMonitorNetwork.for_cluster(cluster,
                                                      sampling_rate=1.0)
    cluster.power_on()
    cluster.run(rounds=40.0)
    assert network.victims()  # the attack really harms someone
    assert_matches_post_hoc(network, cluster)


def test_faulty_node_reported_faulty_not_victim():
    cluster = injection_cluster(
        FaultDescriptor(FaultType.COLLIDING_SENDER, target="B"), "bus")
    network = DecentralizedMonitorNetwork.for_cluster(cluster)
    cluster.power_on()
    cluster.run(rounds=40.0)
    verdicts = {event.node: event.verdict
                for event in network.verdict_events()}
    assert verdicts["B"] == "faulty"
    assert all(verdicts[name] == "victim" for name in ("A", "C", "D"))


def test_sampling_below_one_is_deterministic_and_skips_events():
    def run(rate, seed):
        cluster = SCENARIOS["trace1"].build_cluster(monitor_capacity=60000)
        network = DecentralizedMonitorNetwork.for_cluster(
            cluster, sampling_rate=rate, seed=seed)
        cluster.power_on()
        cluster.run(rounds=30.0)
        return network

    first = run(0.5, seed=7)
    second = run(0.5, seed=7)
    assert first.sampling_stats() == second.sampling_stats()
    assert first.victims() == second.victims()
    assert first.sampling_stats()["skipped"] > 0


def test_replay_decentralized_verdicts_round_trip(tmp_path):
    cluster = injection_cluster(
        FaultDescriptor(FaultType.COLLIDING_SENDER, target="B"), "bus")
    network = DecentralizedMonitorNetwork.for_cluster(cluster)
    cluster.power_on()
    cluster.run(rounds=40.0)
    events = network.verdict_events()

    export = TraceMonitor()
    for event in events:
        export.emit(event)
    path = tmp_path / "verdicts.jsonl"
    export.export_jsonl(str(path))
    replayed = replay_decentralized_verdicts(TraceMonitor.read_jsonl(str(path)))
    assert set(replayed) == set(cluster.controllers)
    assert replayed["B"]["verdict"] == "faulty"
    assert replayed["A"]["verdict"] == "victim"
    assert replayed["A"]["sampling_rate"] == 1.0
