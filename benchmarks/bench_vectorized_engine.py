"""EXP-P6: the vectorized frontier engine.

The packed engine (EXP-P1) lifted the seed's tuple-state BFS by ~4x by
packing states into integers; the vectorized engine lifts it another
order of magnitude by keeping whole BFS levels in NumPy arrays -- one
batched successor computation per level instead of one Python-level
expansion per state.  This benchmark measures, on the same exhaustive
small-shifting PASS configuration EXP-P1 is anchored to:

* **vectorized rate** -- warm best-of-N states/sec of the engine (the
  VectorExplorer BFS over the full reachable set; the first run fills
  the kernel's lazy step tables and is excluded: table fill is a
  one-time cost amortised across a process, which is how the engine is
  used).  The checker-inclusive rate (invariant masks, level storage) is
  recorded alongside for context;
* **the x10 gate** -- the warm engine rate must clear 10x the EXP-P1
  packed rate recorded when the packed engine was introduced (75,269.7
  st/s on this container class);
* **intra-config jobs** -- wall-clock of ``--jobs 2`` (frontier
  sharding) against the packed baseline on the same single
  configuration.  Both gates anchor to the *recorded* EXP-P1 packed rate
  rather than a live re-run, so they do not move with the host or with
  changes to the packed engine.  The live cold packed rate (median and
  min..max of ``PACKED_REPEATS`` fresh models) is reported for context.
  On a single-core host the sharder degrades to serial
  (``effective_jobs`` capping), so a separate *forced* 2-worker pool run
  proves the scatter/gather path returns the identical state set
  (reported, not gated: a real pool on one core only adds overhead).
  CPU count and live cold-start times are recorded so the numbers are
  interpretable off-machine.

``REPRO_BENCH_FAST=1`` drops the measurement rounds (CI smoke); numbers
in ``BENCH_checker.json`` should come from a default run.
"""

import os
import statistics
import time

from _report import update_bench_json, write_report

from repro.analysis.tables import format_table
from repro.core.authority import CouplerAuthority
from repro.model.properties import no_clique_freeze
from repro.model.scenarios import scenario_for_authority
from repro.model.system_model import TTAStartupModel
from repro.modelcheck.checker import InvariantChecker
from repro.modelcheck.shard import FrontierSharder
from repro.modelcheck.vector import VectorExplorer

#: EXP-P1's packed-engine rate on this container class -- the fixed
#: reference the vectorized gate is anchored to (see BENCH_checker.json).
EXP_P1_PACKED_RATE = 75_269.7

#: Required speedup of the vectorized engine over the EXP-P1 packed rate.
REQUIRED_SPEEDUP = 10.0

#: Required wall-clock advantage of ``--jobs 2`` over the packed engine.
REQUIRED_JOBS_SPEEDUP = 1.5

FAST = bool(os.environ.get("REPRO_BENCH_FAST"))
ROUNDS = 2 if FAST else 5

#: Fresh-model cold packed checks behind the reported packed rate.
PACKED_REPEATS = 3


def run_check(system, config, **kwargs):
    checker = InvariantChecker(system, **kwargs)
    return checker.check(no_clique_freeze(config))


def best_of(fn, rounds):
    """Best wall-clock over ``rounds`` runs, plus the last result."""
    best = float("inf")
    result = None
    for _ in range(rounds):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def test_exp_p6_vectorized_rates(benchmark):
    config = scenario_for_authority(CouplerAuthority.SMALL_SHIFTING)

    # Cold packed runs (fresh models): context for the recorded anchor,
    # and the parity reference for every vectorized run below.
    cold_packed_runs = []
    for _ in range(PACKED_REPEATS):
        packed_system = TTAStartupModel(config)
        cold_packed_started = time.perf_counter()
        packed = run_check(packed_system, config, engine="packed")
        cold_packed_runs.append(time.perf_counter() - cold_packed_started)
        assert packed.holds
    cold_packed_seconds = statistics.median(cold_packed_runs)
    packed_rates = sorted(packed.states_explored / seconds
                          for seconds in cold_packed_runs)

    system = TTAStartupModel(config)
    cold_vector_started = time.perf_counter()
    cold_vector = run_check(system, config, engine="vectorized")
    cold_vector_seconds = time.perf_counter() - cold_vector_started
    assert cold_vector.states_explored == packed.states_explored

    # The cold run above filled the vectorized kernel's lazy step tables
    # (cached on the model), so the measured rounds see the steady-state
    # engine -- the one-time fill cost is reported separately.
    def engine_sweep():
        explorer = VectorExplorer(system)
        words, tails, _ = explorer.initial_level(limit=None)
        while len(words):
            words, tails, _, _ = explorer.step(words, tails, limit=None)
        return explorer

    benchmark.pedantic(engine_sweep, rounds=1, iterations=1)
    engine_seconds, explorer = best_of(engine_sweep, rounds=ROUNDS)
    assert explorer.seen_count == packed.states_explored

    checker_seconds, vector = best_of(
        lambda: run_check(system, config, engine="vectorized"),
        rounds=ROUNDS)
    assert vector.holds == packed.holds
    assert vector.states_explored == packed.states_explored

    vector_rate = explorer.seen_count / engine_seconds
    checker_rate = vector.states_explored / checker_seconds
    # Wall-clock the EXP-P1 packed engine would need for this state count.
    anchor_packed_seconds = vector.states_explored / EXP_P1_PACKED_RATE
    speedup_vs_exp_p1 = vector_rate / EXP_P1_PACKED_RATE
    assert speedup_vs_exp_p1 >= REQUIRED_SPEEDUP, (
        f"vectorized engine {vector_rate:,.0f} st/s is only "
        f"{speedup_vs_exp_p1:.2f}x the EXP-P1 packed rate of "
        f"{EXP_P1_PACKED_RATE:,.0f} st/s (need >= {REQUIRED_SPEEDUP}x)")

    # Intra-config parallelism: --jobs 2 on ONE configuration.  On this
    # host the sharder may cap to serial; the user-visible tradeoff is
    # still "vectorized --jobs 2" vs the packed engine they came from,
    # anchored to the same recorded EXP-P1 rate as the x10 gate.
    jobs_seconds, jobs_result = best_of(
        lambda: run_check(system, config, engine="vectorized", jobs=2),
        rounds=ROUNDS)
    assert jobs_result.holds == packed.holds
    assert jobs_result.states_explored == packed.states_explored
    jobs_speedup = anchor_packed_seconds / jobs_seconds
    assert jobs_speedup >= REQUIRED_JOBS_SPEEDUP, (
        f"vectorized --jobs 2 took {jobs_seconds:.3f}s vs the EXP-P1 "
        f"packed anchor {anchor_packed_seconds:.3f}s ({jobs_speedup:.2f}x, "
        f"need >= {REQUIRED_JOBS_SPEEDUP}x)")

    # Forced 2-worker pool: the real scatter/gather path, verdict-
    # identical state set; wall-clock reported, not gated.
    serial_explorer = explorer

    forced_system = TTAStartupModel(config)
    started = time.perf_counter()
    with FrontierSharder(forced_system, jobs=2, min_frontier=64,
                         force_pool=True) as sharder:
        forced_explorer = VectorExplorer(forced_system,
                                         expander=sharder.successor_level)
        words, tails, _ = forced_explorer.initial_level(limit=None)
        while len(words):
            words, tails, _, _ = forced_explorer.step(words, tails,
                                                      limit=None)
        forced_engaged = sharder.sharded_levels > 0
        assert sharder.fallback_reason is None
    forced_seconds = time.perf_counter() - started
    assert forced_engaged
    assert forced_explorer.seen_codes() == serial_explorer.seen_codes()

    rows = [
        ("config", "small_shifting slots=4 budget=1", "-"),
        ("states explored", "-", vector.states_explored),
        ("packed engine (cold, median)", f"{cold_packed_seconds:.3f}s",
         f"{packed.states_explored / cold_packed_seconds:,.0f} st/s "
         f"({packed_rates[0]:,.0f}..{packed_rates[-1]:,.0f}, "
         f"{PACKED_REPEATS} runs)"),
        ("vectorized engine (cold, incl. table fill)",
         f"{cold_vector_seconds:.3f}s",
         f"{packed.states_explored / cold_vector_seconds:,.0f} st/s"),
        ("vectorized engine (warm)", f"{engine_seconds:.3f}s",
         f"{vector_rate:,.0f} st/s"),
        ("vectorized checker (warm, incl. invariant masks)",
         f"{checker_seconds:.3f}s", f"{checker_rate:,.0f} st/s"),
        ("EXP-P1 packed anchor", f"{anchor_packed_seconds:.3f}s",
         f"{EXP_P1_PACKED_RATE:,.0f} st/s"),
        ("speedup vs EXP-P1 packed rate", f"{speedup_vs_exp_p1:.1f}x",
         f"(gate >= {REQUIRED_SPEEDUP:.0f}x)"),
        ("vectorized --jobs 2 (warm)", f"{jobs_seconds:.3f}s",
         f"{jobs_speedup:.1f}x EXP-P1 packed (gate >= "
         f"{REQUIRED_JOBS_SPEEDUP}x)"),
        ("forced 2-worker pool", f"{forced_seconds:.3f}s",
         "state-set identical"),
        ("cpu count", os.cpu_count(), "-"),
    ]
    write_report("EXP-P6", format_table(
        ["measurement", "time", "value"], rows,
        title="Vectorized frontier engine"))
    update_bench_json("exp_p6_vectorized_rates", {
        "config": "small_shifting slots=4 budget=1 (exhaustive PASS)",
        "states_explored": vector.states_explored,
        "cold_packed_seconds": round(cold_packed_seconds, 3),
        "cold_packed_seconds_range": [round(min(cold_packed_runs), 3),
                                      round(max(cold_packed_runs), 3)],
        "cold_packed_repeats": PACKED_REPEATS,
        "cold_vectorized_seconds": round(cold_vector_seconds, 3),
        "vectorized_states_per_second": round(vector_rate, 1),
        "vectorized_checker_states_per_second": round(checker_rate, 1),
        "exp_p1_packed_states_per_second": EXP_P1_PACKED_RATE,
        "speedup_vectorized_over_exp_p1": round(speedup_vs_exp_p1, 2),
        "required_speedup": REQUIRED_SPEEDUP,
        "jobs2_seconds": round(jobs_seconds, 3),
        "jobs2_speedup_over_exp_p1_packed": round(jobs_speedup, 2),
        "required_jobs_speedup": REQUIRED_JOBS_SPEEDUP,
        "forced_pool2_seconds": round(forced_seconds, 3),
        "forced_pool_engaged": forced_engaged,
        "cpu_count": os.cpu_count(),
        "fast_mode": FAST,
    })
