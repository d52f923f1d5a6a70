#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload scale-benign --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics: set-up time (median of
several fresh interpreters), then passes over the workload's op list in a
closed loop -- one op at a time, each starting when the previous returned
-- until ``--seconds`` have elapsed.  ``--trace 1`` alternates untraced
and traced passes for the same time and reports the per-layer metrics
(see ``perf_spans.py``); the traced spans are written to
``perfbench/out/``.

End-to-end times are host-scaled: a fixed calibration spin runs before
and after every op and set-up probe, and each time is converted to
seconds on a host whose spin takes ``REFERENCE_SPIN_S``.  On a shared
host whose speed drifts this keeps a run comparable with the next; the
raw host times are printed beside them.

Every op's output is checked; a failing op counts in ``failed`` and the
run goes on.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

from perf_layers import layer_metrics, pass_summaries
from perf_spans import Tracer
from perf_workloads import DEFAULT_SEED, WORKLOADS, digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
#: Declares every metric and its unit; the output follows it.
BENCHMARK = ROOT / "BENCHMARK.json"

#: Fresh interpreters started per run to measure ``setup_s``.
SETUP_PROBES = 9

#: Calibration-spin seconds of the reference host speed.  End-to-end
#: times are reported as seconds on a host whose spin takes exactly this.
REFERENCE_SPIN_S = 0.02
#: The spin is the median of this many equal chunks, so that one
#: interruption inside it does not move it.
SPIN_CHUNKS = 5


def calibration_spin(iterations: int = 6_000) -> float:
    """Seconds of a fixed pure-Python loop of the kinds of work the
    simulator does (a heap of tuples, small objects, dict updates): the
    median of ``SPIN_CHUNKS`` chunks, scaled to all of them.  It reads the
    host's current speed; the loop never changes, so a change to the
    program cannot move it."""
    chunks = []
    for _ in range(SPIN_CHUNKS):
        start = perf_counter()
        heap: List[Any] = []
        table: Dict[int, Any] = {}
        total = 0
        for index in range(iterations):
            heapq.heappush(heap, (index * 7919 % 1009, index, [index]))
            if len(heap) > 256:
                total += heapq.heappop(heap)[1]
            table[index & 511] = (total, index)
        chunks.append(perf_counter() - start)
    return statistics.median(chunks) * SPIN_CHUNKS


def host_scale(spin_before: float, spin_after: float) -> float:
    """Factor from host seconds to reference seconds for work timed
    between two spins."""
    return REFERENCE_SPIN_S / ((spin_before + spin_after) / 2.0)


@dataclass
class PassResult:
    #: Calibration spins: one before the first op and one after each op.
    spins: List[float] = field(default_factory=list)
    #: (op index, host seconds, reference seconds) of every op that returned.
    latencies: List[Any] = field(default_factory=list)
    outputs: List[Any] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        """Host seconds of the pass's ops."""
        return sum(seconds for _, seconds, _ in self.latencies)

    @property
    def scaled_wall_s(self) -> float:
        """Reference seconds of the pass's ops."""
        return sum(scaled for _, _, scaled in self.latencies)


def run_pass(ops: List[Any], tracer: Any = None) -> PassResult:
    """One closed-loop pass over ``ops``, with a calibration spin before
    the first op and after each op, outside the op's timing.  An op that
    raises yields its exception as output (checked as a failure after the
    pass)."""
    result = PassResult(spins=[calibration_spin()])
    for index, op in enumerate(ops):
        start = perf_counter()
        seconds = None
        try:
            if tracer is None:
                output = op.run()
            else:
                with tracer.op(index, op.name):
                    output = op.run()
        except Exception as error:  # noqa: BLE001 - a failing op must not abort the run
            output = error
            traceback.print_exc(file=sys.stderr)
        else:
            seconds = perf_counter() - start
        result.outputs.append(output)
        result.spins.append(calibration_spin())
        if seconds is not None:
            result.latencies.append(
                (index, seconds,
                 seconds * host_scale(result.spins[-2], result.spins[-1])))
    return result


class Checker:
    """Checks op outputs and keeps the attempted/failed tallies."""

    def __init__(self, ops: List[Any], reference: Optional[Dict[str, str]]) -> None:
        self.ops = ops
        self.reference = reference
        self.first_digests: Optional[List[str]] = None
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, result: PassResult) -> None:
        digests = []
        for index, (op, output) in enumerate(zip(self.ops, result.outputs)):
            self.attempted += 1
            reason = None
            op_digest = ""
            if isinstance(output, Exception):
                reason = f"raised {type(output).__name__}: {output}"
            else:
                try:
                    reason = op.check(output)
                    op_digest = digest(op.stats(output))
                except Exception as error:  # noqa: BLE001 - counted as a failed op
                    reason = f"check raised {type(error).__name__}: {error}"
            if reason is None and self.first_digests is not None \
                    and op_digest != self.first_digests[index]:
                reason = "simulated statistics changed between passes"
            if reason is None and self.reference is not None \
                    and op_digest != self.reference.get(op.name):
                reason = (f"digest {op_digest} differs from reference "
                          f"{self.reference.get(op.name)}")
            digests.append(op_digest)
            if reason is not None:
                self.failed += 1
                self.problems.append(f"{op.name}: {reason}")
        if self.first_digests is None:
            self.first_digests = digests


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: List[float], share: int) -> float:
    """Inclusive ``share``-th percentile (median of one sample is itself)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[share - 1]


def measure_setup(workload: str, seed: int) -> List[Any]:
    """(host, reference) seconds from spawning a fresh interpreter to the
    first op ready, with a calibration spin between probes."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", workload, "--seed", str(seed)]
    times = []
    spin = calibration_spin()
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        subprocess.run(command, cwd=str(ROOT), check=True)
        seconds = perf_counter() - start
        spin_after = calibration_spin()
        times.append((seconds, seconds * host_scale(spin, spin_after)))
        spin = spin_after
    return times


def load_reference(workload: str, seed: int) -> Optional[Dict[str, str]]:
    if seed != DEFAULT_SEED or not REFERENCE.is_file():
        return None
    return json.loads(REFERENCE.read_text())["digests"].get(workload)


def report(line: str) -> None:
    print(line, flush=True)


def end_to_end(workload: Any, ops: List[Any], seed: int, seconds: float,
               checker: Checker) -> Dict[str, Any]:
    setups = measure_setup(workload.name, seed)
    report("setup (host s / reference s): "
           + ", ".join(f"{host:.3f}/{scaled:.3f}" for host, scaled in setups))
    passes = timed_passes(ops, seconds, checker)[0]
    latencies = [scaled for result in passes for _, _, scaled in result.latencies]
    work = busy = 0.0
    for result in passes:
        for index, _, scaled in result.latencies:
            units = getattr(ops[index], workload.unit)
            if units:
                work += units
                busy += scaled
    values = {
        "setup_s": median([scaled for _, scaled in setups]),
        "wall_s": median([result.scaled_wall_s for result in passes]),
        "op_p50_s": median(latencies),
        "op_p90_s": percentile(latencies, 90),
        "work_per_s": work / busy if busy else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    report(f"op latency samples: {len(latencies)} over {len(passes)} passes")
    report(f"host (unscaled) medians: set-up "
           f"{median([host for host, _ in setups]):.4f} s, pass "
           f"{median([result.wall_s for result in passes]):.4f} s")
    report(f"work_per_s is {workload.unit}_per_s on this workload")
    return declared("end_to_end", values)


def declared(section: str, values: Dict[str, float]) -> Dict[str, Any]:
    """``{name: (value, unit)}`` for every metric ``BENCHMARK.json``
    declares in ``section``, in its order."""
    metrics = json.loads(BENCHMARK.read_text())[section]
    return {metric["name"]: (values[metric["name"]], metric["unit"])
            for metric in metrics}


def timed_passes(ops: List[Any], seconds: float, checker: Checker,
                 tracer: Optional[Tracer] = None):
    """Warm-up pass, then passes until ``seconds`` elapsed; with a
    ``tracer`` every second pass runs traced.  Returns (untraced passes,
    traced passes)."""
    warmup = run_pass(ops)
    checker.check(warmup)
    report(f"warm-up pass: {warmup.wall_s:.3f} s")
    untraced: List[PassResult] = []
    traced: List[PassResult] = []
    deadline = perf_counter() + seconds
    number = 0
    while True:
        gc.collect()
        tracing = tracer is not None and number % 2 == 1
        if tracing:
            with tracer.installed():
                result = run_pass(ops, tracer)
            traced.append(result)
        else:
            result = run_pass(ops)
            untraced.append(result)
        checker.check(result)
        # Checked outputs are dropped so that peak RSS measures the
        # program, not the benchmark holding every pass's results.
        result.outputs.clear()
        report(f"pass {number}{' (traced)' if tracing else ''}: "
               f"wall {result.wall_s:.4f} s host, "
               f"{result.scaled_wall_s:.4f} s reference; calibration spin "
               f"median {median(result.spins) * 1e3:.2f} ms")
        number += 1
        if perf_counter() >= deadline and (traced or tracer is None):
            return untraced, traced


def per_layer(workload: Any, ops: List[Any], seed: int, seconds: float,
              checker: Checker) -> Dict[str, Any]:
    tracer = Tracer()
    untraced, traced = timed_passes(ops, seconds, checker, tracer)
    summaries = pass_summaries(tracer.op_summaries, ops)
    counts = [summary["counts"] for summary in summaries]
    if any(count != counts[0] for count in counts[1:]):
        checker.problems.append("per-layer counts differ between traced passes")
    for op_summary in tracer.op_summaries:
        attributed = sum(op_summary["self_s"].values())
        if abs(attributed - op_summary["seconds"]) > 1e-6:
            checker.problems.append(
                f"{op_summary['name']}: self times sum to {attributed}, "
                f"op took {op_summary['seconds']}")
    overhead = (median([result.scaled_wall_s for result in traced])
                / median([result.scaled_wall_s for result in untraced]))
    metrics = declared("per_layer", layer_metrics(summaries, overhead))
    write_trace(workload.name, seed, tracer)
    report("per-op breakdown of the last traced pass (self seconds):")
    for op_summary in tracer.op_summaries[-len(ops):]:
        layers = sorted(((value, bucket) for bucket, value
                         in op_summary["self_s"].items() if bucket != "op"),
                        reverse=True)
        shown = ", ".join(f"{bucket} {value:.4f}" for value, bucket in layers[:6])
        report(f"  {op_summary['name']}: {op_summary['seconds']:.4f} s = {shown}"
               f" ... + unattributed {op_summary['unattributed_s']:.4f}")
    report(f"tracing overhead: traced pass {overhead:.2f}x the untraced pass "
           f"({len(traced)} traced, {len(untraced)} untraced passes)")
    return metrics


def write_trace(workload: str, seed: int, tracer: Any) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload}-seed{seed}-trace.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for span in tracer.spans:
            handle.write(json.dumps({"span": span}, sort_keys=True) + "\n")
        for summary in tracer.op_summaries:
            handle.write(json.dumps({"op": summary}, sort_keys=True) + "\n")
    report(f"trace written to {path.relative_to(ROOT)}")


def setup_probe(workload: Any, seed: int) -> None:
    """Body of one set-up measurement: import and build, then exit at once."""
    workload.prepare(seed)
    os._exit(0)


def record_reference() -> None:
    """Rewrite ``reference.json`` from one pass per workload at the default
    seed (for a change that deliberately alters simulated statistics)."""
    digests = {}
    for name, workload in WORKLOADS.items():
        ops = workload.build_ops(DEFAULT_SEED)
        checker = Checker(ops, reference=None)
        result = run_pass(ops)
        checker.check(result)
        if checker.problems:
            raise SystemExit("refusing to record failing ops: "
                             + "; ".join(checker.problems))
        digests[name] = dict(zip((op.name for op in ops), checker.first_digests))
    REFERENCE.write_text(json.dumps(
        {"seed": DEFAULT_SEED, "digests": digests}, indent=2, sort_keys=True) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference.json at the default seed")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.record_reference:
        record_reference()
        return 0
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        setup_probe(workload, args.seed)

    ops = workload.build_ops(args.seed)
    checker = Checker(ops, load_reference(workload.name, args.seed))
    report(f"workload {workload.name}, seed {args.seed}")
    if args.trace:
        metrics = per_layer(workload, ops, args.seed, args.seconds, checker)
    else:
        metrics = end_to_end(workload, ops, args.seed, args.seconds, checker)
    for problem in checker.problems:
        report(f"FAILED {problem}")
    for name, (value, unit) in metrics.items():
        report(f"{name:32s} {value:16.6f} {unit}")
    report(f"{'ops_attempted':32s} {checker.attempted:16d} count")
    report(f"{'ops_failed':32s} {checker.failed:16d} count")
    print(json.dumps({
        "correct": checker.failed == 0 and not checker.problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
