"""EXP-P9: decentralized-monitor fidelity vs sampling rate.

A mid-frame jammer on a generated bus cluster forces a wave of protocol
freezes (clique errors) among the healthy nodes.  The sampling-based
decentralized monitors (:mod:`repro.obs.decentralized`) watch the same
run at rates {1.0, 0.5, 0.25, 0.1}.  The reference is the central
monitor: the same :class:`repro.obs.monitors.VerdictMonitor` at full
rate, one observer of the whole bus.  At rate 1.0 the network is that
monitor with no sampling draw, so its verdicts must be identical (the
gate); below full rate the benchmark quantifies the fidelity cost -- how
many violations the per-node samplers still catch, and how much later
the first one is flagged (verdict-detection latency).

``REPRO_BENCH_FAST=1`` drops the size ladder to {8, 16}; fidelity
numbers are deterministic either way (seeded Bernoulli samplers).
"""

import os

from _report import update_bench_json, write_report

from repro.analysis.tables import format_table
from repro.cluster import Cluster
from repro.faults.injector import apply_fault
from repro.faults.types import FaultDescriptor, FaultType
from repro.gen.config import GenConfig
from repro.gen.materialize import materialize
from repro.obs.decentralized import DecentralizedMonitorNetwork
from repro.obs.monitors import VerdictMonitor

from bench_des_engine import BENCH_DES_JSON

FAST = bool(os.environ.get("REPRO_BENCH_FAST"))
SIZES = [8, 16] if FAST else [8, 16, 32]
RATES = (1.0, 0.5, 0.25, 0.1)
ROUNDS = 40.0
MONITOR_CAPACITY = 4096


def run_cell(nodes, rate):
    """One (cluster size, sampling rate) cell; deterministic."""
    config = GenConfig(name="bench-decentralized", nodes=nodes,
                       topology="bus", seed=1)
    spec = materialize(config)
    spec.monitor_capacity = MONITOR_CAPACITY
    spec = apply_fault(spec, FaultDescriptor(
        FaultType.MID_FRAME_JAMMER, target=spec.node_names[1]))
    cluster = Cluster(spec)
    central = VerdictMonitor.for_cluster(cluster)
    network = DecentralizedMonitorNetwork.for_cluster(
        cluster, sampling_rate=rate, seed=1)
    cluster.power_on()
    cluster.run(rounds=ROUNDS, pause_gc=True)

    round_duration = cluster.medl.round_duration()
    truth = central.violations
    seen = network.violations
    stats = network.sampling_stats()
    return {
        "nodes": nodes,
        "rate": rate,
        "sampled_events": stats["sampled"],
        "skipped_events": stats["skipped"],
        "violations_actual": len(truth),
        "violations_detected": len(seen),
        "first_violation_rounds": (
            round(truth[0].time / round_duration, 4) if truth else None),
        "first_detection_rounds": (
            round(seen[0].time / round_duration, 4) if seen else None),
        "victims_agree": network.victims() == central.victims(),
        "violations_identical": seen == truth,
    }


def test_exp_p9_decentralized_sampling(benchmark):
    benchmark.pedantic(lambda: run_cell(SIZES[0], 1.0),
                       rounds=1, iterations=1)

    results = [run_cell(nodes, rate) for nodes in SIZES for rate in RATES]

    # Differential gate: full-rate decentralized verdicts are exact.
    for row in results:
        assert row["violations_actual"] > 0, (
            f"{row['nodes']}-node workload produced no violations to detect")
        if row["rate"] == 1.0:
            assert row["victims_agree"], row
            assert row["violations_identical"], row
            assert row["skipped_events"] == 0, row
            assert row["first_detection_rounds"] == \
                row["first_violation_rounds"], row

    # Sub-unit sampling can only lose events, never invent them.
    for row in results:
        assert row["violations_detected"] <= row["violations_actual"]
        if row["first_detection_rounds"] is not None:
            assert row["first_detection_rounds"] >= \
                row["first_violation_rounds"]

    rows = []
    for row in results:
        detected = f"{row['violations_detected']}/{row['violations_actual']}"
        latency = ("missed" if row["first_detection_rounds"] is None
                   else f"{row['first_detection_rounds']:g}")
        rows.append((row["nodes"], f"{row['rate']:g}",
                     row["sampled_events"], row["skipped_events"],
                     detected, latency,
                     "exact" if row["violations_identical"] else "lossy"))
    write_report("EXP-P9", format_table(
        ["nodes", "rate", "sampled", "skipped", "violations",
         "first detection (rounds)", "fidelity"],
        rows,
        title=f"Decentralized monitors vs sampling rate, mid-frame jammer "
              f"on generated bus x {ROUNDS:g} rounds (fast={FAST})"))
    update_bench_json("exp_p9_decentralized_sampling", {
        "workload": f"mid-frame jammer, generated bus, {ROUNDS:g} rounds",
        "sizes": SIZES,
        "rates": list(RATES),
        "results": results,
        "fast_mode": FAST,
    }, path=BENCH_DES_JSON)
