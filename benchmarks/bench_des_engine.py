"""EXP-P7: the rebuilt DES hot path.

The hot-path refactor gave the engine a pooled no-cancellation
scheduling fast path and compiled each MEDL round into a per-slot
dispatch table installed once per mode change; later, each controller
re-arms one tick event, and each channel posts its completions on the
same engine queue.  The refactor is semantics-preserving -- both
paper conformance traces stay byte-identical (see
``tests/test_conformance_golden.py``) -- so the only number that changes
is the rate.  This benchmark measures it on the paper's benign case:

* **typed-event rate** -- warm best-of-N typed events/sec of a benign
  4-node star startup run for 300 TDMA rounds (the monitor's
  eviction-proof emission counter over wall-clock);
* **the speedup gate** -- that rate must clear ``REQUIRED_SPEEDUP`` x
  the pre-refactor rate recorded when the refactor landed (see
  ``EXP_P7_PRE_REFACTOR_RATE``);
* **engine event rate** -- raw fired simulator events/sec
  (``sim.fired_count``), recorded alongside so queue-level and
  protocol-level gains are separable;
* **32-node smoke** -- a 32-node benign startup must converge to a full
  ACTIVE membership within the CI budget (wall-clock recorded).  The
  pre-refactor stack cannot run this workload at all (its membership
  wire field capped clusters at 16 slots), so the smoke has no
  pre-refactor reference arm.

Anchor methodology: the pre-refactor rate was measured by checking out
the last pre-refactor commit into a worktree and running both stacks
interleaved (old, new, old, new, ...), each arm a subprocess doing warm
best-of-5 of the identical workload.  The measurement host is a shared
1-CPU container whose effective CPU speed swings by ~2x on a timescale
of minutes (throttling: the swings show up in ``time.process_time``
too, so they are not steal), while the old/new *ratio* stays put at
2.7x-3.2x across windows.  An absolute events/s gate would therefore
flake, so the anchor is a *pair*: the pre-refactor rate plus the rate
of a fixed pure-Python calibration spin (:func:`calibration_rate`)
measured in the same window.  At gate time the spin is re-measured and
the anchor is scaled by the host-speed ratio before comparing -- the
same normalization that made the interleaved A/B stable.  The gate is
set at 2x (measured: ~2.9x) to leave headroom for the residual
calibration error while still tripping on any real hot-path regression.

``REPRO_BENCH_FAST=1`` drops the measurement rounds and relaxes the
gate to ``FAST_REQUIRED_SPEEDUP`` (CI containers run it as a regression
tripwire; op-mix differences across CPU generations make the scaled
anchor less exact than on the recording host); numbers in
``BENCH_des.json`` should come from a default run.
"""

import os
import pathlib
import time

from _report import update_bench_json, write_report

from repro.analysis.tables import format_table
from repro.cluster import Cluster, ClusterSpec
from repro.gen.schedule import auto_slot_duration
from repro.ttp.constants import ControllerStateName
from repro.ttp.frames import i_frame_wire_bits

#: Machine-readable DES performance numbers (the checker benchmarks own
#: ``BENCH_checker.json``; the DES hot path is tracked separately).
BENCH_DES_JSON = pathlib.Path(__file__).parent / "BENCH_des.json"

#: Pre-refactor typed-event rate -- the reference the speedup gate is
#: anchored to: the interleaved-A/B rate of the identical benign 4-node
#: 300-round startup on the stack the refactor replaced (see the anchor
#: methodology in the module docstring).
EXP_P7_PRE_REFACTOR_RATE = 33_199.5

#: :func:`calibration_rate` measured in the same window as the anchor
#: above; the gate scales the anchor by ``measured_now / this`` so the
#: comparison survives the host's ~2x CPU-speed swings.
ANCHOR_CALIBRATION_RATE = 7_867_976.0

#: Required speedup of the rebuilt hot path over the (host-speed
#: scaled) pre-refactor rate.  Measured contemporaneous speedup: ~2.9x;
#: gated at 2x for residual calibration error.
REQUIRED_SPEEDUP = 2.0

#: Fast-mode (CI) gate: op-mix differences across CPU generations make
#: the scaled anchor less exact off the recording host.
FAST_REQUIRED_SPEEDUP = 1.5

FAST = bool(os.environ.get("REPRO_BENCH_FAST"))
ROUNDS = 2 if FAST else 5


def calibration_rate(iterations=200_000, repeats=3):
    """Steps/s of a fixed pure-Python spin -- a host-speed probe.

    The loop mirrors the simulator hot path's op mix (method calls,
    ``__slots__`` attribute traffic, dict and list updates, float
    arithmetic) so host-level CPU slowdowns hit it and the benchmark
    workload by about the same factor.
    """

    class Probe:
        __slots__ = ("t", "bins", "buf")

        def __init__(self):
            self.t = 0.0
            self.bins = {}
            self.buf = []

        def step(self, i):
            self.t += 0.25
            self.bins[i & 63] = i
            buf = self.buf
            if len(buf) > 512:
                del buf[:]
            buf.append((self.t, i))
            return self.t

    best = float("inf")
    for _ in range(repeats):
        probe = Probe()
        step = probe.step
        started = time.perf_counter()
        for i in range(iterations):
            step(i)
        best = min(best, time.perf_counter() - started)
    return iterations / best

#: The measured workload: the paper's benign case (all four nodes power
#: on healthy) run long enough that steady-state rounds dominate startup.
TDMA_ROUNDS = 300


def benign_startup(nodes=4, rounds=TDMA_ROUNDS):
    # Auto-sized slots keep wide-membership I-frames inside their slot;
    # at 4 nodes this is exactly the paper's 100-unit slot and 76-bit
    # frame, so the measured workload is unchanged from the anchor's.
    names = [f"N{i}" for i in range(nodes)]
    cluster = Cluster(ClusterSpec(node_names=names,
                                  slot_duration=auto_slot_duration(nodes),
                                  frame_bits=i_frame_wire_bits(nodes)))
    cluster.power_on()
    cluster.run(rounds=rounds, pause_gc=True)
    return cluster


def best_of(fn, rounds):
    """Best wall-clock over ``rounds`` runs, plus the last result."""
    best = float("inf")
    result = None
    for _ in range(rounds):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def typed_events(cluster):
    """Eviction-proof count of typed events the run emitted."""
    return sum(cluster.monitor.kind_counts.values())


def test_exp_p7_des_engine_rates(benchmark):
    benchmark.pedantic(benign_startup, rounds=1, iterations=1)

    seconds, cluster = best_of(benign_startup, rounds=ROUNDS)
    assert all(state is ControllerStateName.ACTIVE
               for state in cluster.states().values())

    event_count = typed_events(cluster)
    rate = event_count / seconds
    engine_rate = cluster.sim.fired_count / seconds

    # Host-speed normalization: scale the recorded anchor to what the
    # pre-refactor stack would do in *this* measurement window.
    host_scale = calibration_rate() / ANCHOR_CALIBRATION_RATE
    scaled_anchor = EXP_P7_PRE_REFACTOR_RATE * host_scale
    speedup = rate / scaled_anchor
    required = FAST_REQUIRED_SPEEDUP if FAST else REQUIRED_SPEEDUP
    assert speedup >= required, (
        f"rebuilt hot path {rate:,.0f} ev/s is only "
        f"{speedup:.2f}x the host-scaled pre-refactor rate of "
        f"{scaled_anchor:,.0f} ev/s (host scale {host_scale:.2f}, "
        f"need >= {required}x)")

    # 32-node benign startup: the stack scales past the paper's 4-node
    # Byzantine minimum (and past the old 16-slot membership field)
    # within the CI budget.
    smoke_rounds = 12 if FAST else 30
    smoke_started = time.perf_counter()
    smoke = benign_startup(nodes=32, rounds=smoke_rounds)
    smoke_seconds = time.perf_counter() - smoke_started
    assert all(state is ControllerStateName.ACTIVE
               for state in smoke.states().values())
    expected = frozenset(range(1, 33))
    assert all(controller.view.membership_set() == expected
               for controller in smoke.controllers.values())

    rows = [
        ("workload", f"benign 4-node star, {TDMA_ROUNDS} rounds", "-"),
        ("typed events / run", "-", event_count),
        ("engine events / run", "-", cluster.sim.fired_count),
        ("typed event rate (warm)", f"{seconds:.3f}s",
         f"{rate:,.0f} ev/s"),
        ("engine event rate", "-", f"{engine_rate:,.0f} ev/s"),
        ("pre-refactor anchor", "-",
         f"{EXP_P7_PRE_REFACTOR_RATE:,.0f} ev/s"),
        ("host scale (calibration)", "-", f"{host_scale:.2f}"),
        ("speedup vs scaled anchor", f"{speedup:.1f}x",
         f"(gate >= {required:.1f}x)"),
        ("32-node smoke", f"{smoke_seconds:.3f}s",
         f"{smoke_rounds} rounds, all ACTIVE"),
        ("cpu count", os.cpu_count(), "-"),
    ]
    write_report("EXP-P7", format_table(
        ["measurement", "time", "value"], rows,
        title="Rebuilt DES hot path (pooled scheduling + compiled "
              "dispatch + re-armed ticks)"))
    update_bench_json("exp_p7_des_engine_rates", {
        "workload": f"benign 4-node star startup, {TDMA_ROUNDS} rounds",
        "typed_events_per_run": event_count,
        "engine_events_per_run": cluster.sim.fired_count,
        "seconds": round(seconds, 3),
        "events_per_second": round(rate, 1),
        "engine_events_per_second": round(engine_rate, 1),
        "pre_refactor_events_per_second": EXP_P7_PRE_REFACTOR_RATE,
        "host_scale": round(host_scale, 3),
        "speedup_over_pre_refactor": round(speedup, 2),
        "required_speedup": required,
        "smoke32_rounds": smoke_rounds,
        "smoke32_seconds": round(smoke_seconds, 3),
        "fast_mode": FAST,
    }, path=BENCH_DES_JSON)
