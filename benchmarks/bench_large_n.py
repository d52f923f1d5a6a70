"""EXP-P8: large-N generated clusters -- throughput and startup vs size.

The cluster generator (``repro.gen``) materializes arbitrary-size
clusters from one declarative config; this benchmark runs the benign
generated star at a ladder of sizes up to the TTP/C 64-slot ceiling and
records, per size:

* **node-slot rate** -- node-slots/sec, the unit the DES's per-round
  work is made of: N nodes each tick through N slots per round, so a
  run does N x N x rounds node-slots (the same unit as the repository
  benchmark's ``work_per_s``).  ``REPEATS`` runs per size; the record
  keeps the median and the min..max spread;
* **typed-event rate** -- typed events/sec of the same runs (wall-clock
  over the monitor's eviction-proof counter).  Typed events grow O(N)
  per round while the work grows O(N^2), so this rate falls with N even
  when the per-node-slot cost is flat;
* **before/after** -- the node-slot rate of the slot judge this one
  replaced (memberships compared as frozensets, O(N) per node-slot),
  measured by this benchmark on the same host and scaled by the
  calibration probe of EXP-P7 (see ``SET_JUDGE_NODE_SLOTS_PER_S``);
* **startup latency in rounds** -- time until every node is ACTIVE,
  from the online :class:`repro.obs.monitors.VerdictMonitor`, divided
  by the round duration.  Listen timeouts are ``slots + node_slot``
  silent slots, so latency measured in *rounds* is expected to stay
  O(1) while the round itself grows linearly with N -- the scaling
  argument behind the paper's 4-node minimum being representative;
* **correctness gates** -- every node ACTIVE with the full membership
  vector agreed, at every size (a perf number from a broken run is
  worthless).

``REPRO_BENCH_FAST=1`` drops the size ladder to {8, 32} and shortens
the runs (CI tripwire); numbers in ``BENCH_des.json`` should come from
a default run.
"""

import os
import statistics
import time

from _report import update_bench_json, write_report

from repro.analysis.tables import format_table
from repro.cluster import Cluster
from repro.gen.config import GenConfig
from repro.gen.materialize import materialize
from repro.obs.monitors import VerdictMonitor
from repro.ttp.constants import ControllerStateName

from bench_des_engine import BENCH_DES_JSON, calibration_rate

FAST = bool(os.environ.get("REPRO_BENCH_FAST"))
SIZES = [8, 32] if FAST else [8, 16, 32, 64]
ROUNDS = 12 if FAST else 40
REPEATS = 3 if FAST else 5

#: Node-slots/s of the previous slot judge, which compared memberships
#: as frozensets: this benchmark's ``measure_size`` run on that code three
#: times, alternated with runs of the word-comparing judge on the same
#: host; each rate is divided by the calibration probe taken with it, and
#: the median is scaled back to the calibration rate below.
SET_JUDGE_NODE_SLOTS_PER_S = {8: 53_743.0, 16: 68_420.3,
                              32: 76_415.0, 64: 85_645.5}

#: :func:`calibration_rate` of those runs (median); the report scales the
#: rates above by ``measured_now / this``.
SET_JUDGE_CALIBRATION_RATE = 3_940_857.0

#: Bound the event ring so 64-node runs keep flat memory; the startup
#: monitor is online, so eviction never loses the verdict.
MONITOR_CAPACITY = 4096


def run_size(nodes):
    spec = materialize(GenConfig(name="bench-large-n", nodes=nodes, seed=1))
    spec.monitor_capacity = MONITOR_CAPACITY
    cluster = Cluster(spec)
    startup = VerdictMonitor.for_cluster(cluster)
    cluster.power_on()
    started = time.perf_counter()
    cluster.run(rounds=ROUNDS, pause_gc=True)
    seconds = time.perf_counter() - started

    # Correctness gates before any rate is recorded.
    assert all(state is ControllerStateName.ACTIVE
               for state in cluster.states().values()), (
        f"{nodes}-node generated cluster failed to reach ACTIVE")
    expected = frozenset(range(1, nodes + 1))
    assert all(controller.view.membership_set() == expected
               for controller in cluster.controllers.values()), (
        f"{nodes}-node membership vectors disagree")

    all_active = startup.all_active_time()
    assert all_active is not None
    round_duration = cluster.medl.round_duration()
    return {
        "nodes": nodes,
        "slot_duration": spec.slot_duration,
        "round_duration": round_duration,
        "typed_events": sum(cluster.monitor.kind_counts.values()),
        "seconds": seconds,
        "startup_rounds": round(all_active / round_duration, 4),
    }


def measure_size(nodes):
    """``REPEATS`` gated runs of one size: median rates and their spread."""
    runs = [run_size(nodes) for _ in range(REPEATS)]
    first = runs[0]
    # The simulation is deterministic; only the wall clock may vary.
    assert all(run["typed_events"] == first["typed_events"]
               and run["startup_rounds"] == first["startup_rounds"]
               for run in runs)
    node_slots = nodes * nodes * ROUNDS
    rates = sorted(node_slots / run["seconds"] for run in runs)
    seconds = statistics.median(run["seconds"] for run in runs)
    return {
        "nodes": nodes,
        "slot_duration": first["slot_duration"],
        "round_duration": first["round_duration"],
        "typed_events": first["typed_events"],
        "node_slots": node_slots,
        "repeats": REPEATS,
        "seconds": round(seconds, 3),
        "node_slots_per_second": round(statistics.median(rates), 1),
        "node_slots_per_second_min": round(rates[0], 1),
        "node_slots_per_second_max": round(rates[-1], 1),
        "events_per_second": round(first["typed_events"] / seconds, 1),
        "startup_rounds": first["startup_rounds"],
    }


def test_exp_p8_large_n_scaling(benchmark):
    benchmark.pedantic(lambda: run_size(SIZES[0]), rounds=1, iterations=1)

    results = [measure_size(nodes) for nodes in SIZES]
    host_scale = calibration_rate() / SET_JUDGE_CALIBRATION_RATE
    for row in results:
        before = SET_JUDGE_NODE_SLOTS_PER_S[row["nodes"]] * host_scale
        row["set_judge_node_slots_per_second"] = round(before, 1)
        row["speedup_over_set_judge"] = round(
            row["node_slots_per_second"] / before, 2)

    # The O(1)-rounds startup claim: latency in rounds must not grow
    # with N (generous factor for the listen-timeout spread).
    latencies = [row["startup_rounds"] for row in results]
    assert max(latencies) <= 3 * min(latencies), (
        f"startup latency in rounds grew superlinearly: {latencies}")

    rows = [(row["nodes"], f"{row['slot_duration']:g}",
             row["typed_events"], f"{row['seconds']:.3f}s",
             f"{row['node_slots_per_second']:,.0f}",
             f"{row['node_slots_per_second_min']:,.0f}.."
             f"{row['node_slots_per_second_max']:,.0f}",
             f"{row['events_per_second']:,.0f}",
             f"{row['set_judge_node_slots_per_second']:,.0f}",
             f"{row['speedup_over_set_judge']:.2f}x",
             f"{row['startup_rounds']:g}")
            for row in results]
    rows.append(("host scale", f"{host_scale:.2f}", "-", "-", "-", "-", "-",
                 "-", "-", "-"))
    rows.append(("cpu count", os.cpu_count(), "-", "-", "-", "-", "-", "-",
                 "-", "-"))
    write_report("EXP-P8", format_table(
        ["nodes", "slot", "typed events", "time (median)", "node-slots/s",
         "node-slots/s min..max", "events/s", "set judge node-slots/s",
         "speedup", "startup (rounds)"],
        rows,
        title=f"Generated-cluster scaling, benign startup x {ROUNDS} "
              f"rounds, median of {REPEATS} (fast={FAST})"))
    update_bench_json("exp_p8_large_n_scaling", {
        "workload": f"benign generated star startup, {ROUNDS} rounds",
        "sizes": SIZES,
        "repeats": REPEATS,
        "results": results,
        "host_scale": round(host_scale, 3),
        "set_judge_calibration_rate": SET_JUDGE_CALIBRATION_RATE,
        "fast_mode": FAST,
    }, path=BENCH_DES_JSON)
