"""EXP-P1: model-checking performance.

Paper Section 5.2: "Both traces are generated in less than a minute on a
1.5 GHz AMD machine" (with SMV).  This benchmark measures our
explicit-state checker generating both counterexample traces and exploring
the full reachable space of a PASS configuration, and reports states/sec
for three engines: the original tuple-state BFS, the scalar packed-integer
engine (the fallback without numpy), and the default ``auto`` engine (the
exact array engine, which returns the packed engine's result on every
field).  Absolute times are machine-dependent; the reproduced claims are
the *order of magnitude* (both traces well under a minute) and the default
engine's speedup over the tuple baseline on the same exhaustive run.
Each engine's rate is the median of ``REPEATS`` checks on fresh models
(cold: every memo and kernel table starts empty), reported with its
min..max spread.
"""

import statistics
import time

from _report import update_bench_json, write_report

from repro.analysis.tables import format_table
from repro.core.authority import CouplerAuthority
from repro.core.verification import verify_authority, verify_config
from repro.model.scenarios import trace1_scenario, trace2_scenario

#: The seed repository's EXP-P1 exploration rate (tuple engine, this
#: container class) -- the fixed reference the speedup gate is anchored to.
SEED_TUPLE_RATE = 18_768.0

#: Required speedup of the default engine over the live tuple baseline.
REQUIRED_SPEEDUP = 3.0

#: Fresh-model checks per engine behind each reported rate.
REPEATS = 5


def generate_both_traces():
    return verify_config(trace1_scenario()), verify_config(trace2_scenario())


def engine_rates(engine):
    """States/s of ``REPEATS`` exhaustive PASS checks, each on a fresh
    model, plus the last result."""
    rates = []
    for _ in range(REPEATS):
        result = verify_authority(CouplerAuthority.SMALL_SHIFTING,
                                  engine=engine)
        rates.append(result.check.states_per_second)
    return rates, result


def spread(rates):
    return f"{min(rates):,.0f}..{max(rates):,.0f} ({len(rates)} runs)"


def test_exp_p1_trace_generation_time(benchmark):
    started = time.perf_counter()
    trace1, trace2 = benchmark.pedantic(generate_both_traces,
                                        rounds=1, iterations=1)
    elapsed = time.perf_counter() - started

    assert not trace1.property_holds and not trace2.property_holds
    # The paper's headline performance claim, with ample margin.
    assert elapsed < 60.0, "trace generation exceeded one minute"

    # Same exhaustive PASS configuration, every engine: the tuple engine is
    # the seed baseline, scalar packed the no-numpy fallback, auto the
    # default fast path.  Rates are measured live in the same process so
    # the comparison is like-for-like.
    tuple_rates, baseline = engine_rates("tuple")
    packed_rates, packed = engine_rates("packed")
    auto_rates, auto = engine_rates("auto")
    for result in (packed, auto):
        assert result.property_holds == baseline.property_holds
        assert (result.check.states_explored
                == baseline.check.states_explored)
        assert (result.check.transitions_explored
                == baseline.check.transitions_explored)

    tuple_rate = statistics.median(tuple_rates)
    packed_rate = statistics.median(packed_rates)
    auto_rate = statistics.median(auto_rates)
    speedup = auto_rate / max(tuple_rate, 1e-9)
    assert speedup >= REQUIRED_SPEEDUP, (
        f"auto engine {auto_rate:,.0f} st/s is only {speedup:.2f}x the "
        f"tuple baseline {tuple_rate:,.0f} st/s (need >= {REQUIRED_SPEEDUP}x)")
    assert auto_rate >= REQUIRED_SPEEDUP * SEED_TUPLE_RATE, (
        f"auto engine {auto_rate:,.0f} st/s below {REQUIRED_SPEEDUP}x "
        f"the seed EXP-P1 rate of {SEED_TUPLE_RATE:,.0f} st/s")

    rows = [
        ("trace 1 (cold-start replay)",
         f"{trace1.check.elapsed_seconds:.2f}s",
         trace1.check.states_explored),
        ("trace 2 (C-state replay)",
         f"{trace2.check.elapsed_seconds:.2f}s",
         trace2.check.states_explored),
        ("both traces total", f"{elapsed:.2f}s", "-"),
        ("exhaustive PASS config (tuple)",
         f"{baseline.check.elapsed_seconds:.2f}s",
         baseline.check.states_explored),
        ("exhaustive PASS config (packed)",
         f"{packed.check.elapsed_seconds:.2f}s",
         packed.check.states_explored),
        (f"exhaustive PASS config (auto = {auto.check.engine})",
         f"{auto.check.elapsed_seconds:.2f}s",
         auto.check.states_explored),
        ("tuple engine rate (median)", f"{tuple_rate:,.0f} states/s",
         spread(tuple_rates)),
        ("packed fallback rate (median)", f"{packed_rate:,.0f} states/s",
         spread(packed_rates)),
        ("auto engine rate (median)", f"{auto_rate:,.0f} states/s",
         spread(auto_rates)),
        ("auto/tuple speedup", f"{speedup:.1f}x", "-"),
        ("seed EXP-P1 rate", f"{SEED_TUPLE_RATE:,.0f} states/s", "-"),
        ("paper reference", "< 60s (SMV, 1.5 GHz AMD)", "-"),
    ]
    write_report("EXP-P1", format_table(
        ["measurement", "time / rate", "states / spread"], rows,
        title="Model-checking performance"))
    update_bench_json("exp_p1_engine_rates", {
        "config": "small_shifting slots=4 budget=1 (exhaustive PASS)",
        "states_explored": baseline.check.states_explored,
        "repeats": REPEATS,
        "tuple_states_per_second": round(tuple_rate, 1),
        "tuple_states_per_second_range": [round(min(tuple_rates), 1),
                                          round(max(tuple_rates), 1)],
        "packed_states_per_second": round(packed_rate, 1),
        "packed_states_per_second_range": [round(min(packed_rates), 1),
                                           round(max(packed_rates), 1)],
        "auto_engine": auto.check.engine,
        "auto_states_per_second": round(auto_rate, 1),
        "auto_states_per_second_range": [round(min(auto_rates), 1),
                                         round(max(auto_rates), 1)],
        "speedup_auto_over_tuple": round(speedup, 2),
        "seed_tuple_states_per_second": SEED_TUPLE_RATE,
        "speedup_auto_over_seed": round(auto_rate / SEED_TUPLE_RATE, 2),
        "required_speedup": REQUIRED_SPEEDUP,
        "both_traces_seconds": round(elapsed, 3),
        "trace_engines": [trace1.check.engine, trace2.check.engine],
    })
