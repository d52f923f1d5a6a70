"""EXP-P5: overhead of the resilient task runner.

The resilience layer (``repro.exec.TaskRunner``) wraps every campaign
cell in an envelope, bookkeeping dict updates, and (optionally) a JSONL
checkpoint write.  None of that may cost a meaningful fraction of a real
campaign: the cells themselves are multi-second discrete-event runs, so
the per-task overhead budget is generous in relative terms but is still
measured and gated here in absolute terms.

Three timings over the same EXP-S2 campaign task list:

* **bare map** -- ``[_injection_worker(t) for t in tasks]``, the serial
  loop with no envelope at all;
* **runner** -- ``TaskRunner.run`` with retries enabled but nothing
  failing (the common case: resilience armed, never needed);
* **runner + checkpoint** -- the same run streaming every finished cell
  to a JSONL checkpoint.

Each path first runs once untimed (imports, allocator and caches warm),
then ``REPEATS`` timed rounds rotate the order of the three paths, so no
path is always the cold one or always the warm one.  The gate: the
runner's median wall-clock must stay within ``MAX_OVERHEAD_RATIO`` of the
bare map's median, and the results must be identical on all three paths.
"""

import os
import statistics
import time

from _report import update_bench_json, write_report

from repro.analysis.tables import format_table
from repro.core.authority import CouplerAuthority
from repro.exec import TaskRunner
from repro.faults.campaign import DEFAULT_FAULTS, _injection_worker

#: Campaign geometry; small rounds keep the benchmark under a minute.
ROUNDS = 16.0

#: Runner wall-clock must stay within this factor of the bare map.
MAX_OVERHEAD_RATIO = 1.25

#: Timed rounds per path; each round rotates which path runs first.
REPEATS = 5


def _tasks():
    return [(fault, topology, CouplerAuthority.SMALL_SHIFTING, ROUNDS, 0)
            for fault in DEFAULT_FAULTS for topology in ("bus", "star")]


def _signature(outcomes):
    return [(entry.fault.fault_type.value, entry.topology, entry.victims)
            for entry in outcomes]


def _spread(times):
    return f"{min(times):.3f}..{max(times):.3f}s"


def test_exp_p5_task_runner_overhead(benchmark, tmp_path):
    tasks = _tasks()
    checkpoint = str(tmp_path / "bench-checkpoint.jsonl")

    def bare_map():
        return [_injection_worker(task) for task in tasks]

    def runner_map():
        return TaskRunner(max_workers=1, retries=2).map(_injection_worker, tasks)

    def checkpoint_map():
        if os.path.exists(checkpoint):
            os.remove(checkpoint)
        return TaskRunner(max_workers=1, retries=2,
                          checkpoint=checkpoint).map(_injection_worker, tasks)

    paths = [("bare", bare_map), ("runner", runner_map),
             ("checkpoint", checkpoint_map)]
    # Untimed warm-up: one pass of every path before any timing.
    bare = benchmark.pedantic(bare_map, rounds=1, iterations=1)
    outcomes = {name: run() for name, run in paths[1:]}

    times = {name: [] for name, _ in paths}
    for repeat in range(REPEATS):
        rotation = repeat % len(paths)
        for name, run in paths[rotation:] + paths[:rotation]:
            started = time.perf_counter()
            outcomes[name] = run()
            times[name].append(time.perf_counter() - started)

    signature = _signature(bare)
    assert all(_signature(outcome) == signature
               for outcome in outcomes.values())
    assert os.path.exists(checkpoint)

    bare_seconds = statistics.median(times["bare"])
    runner_seconds = statistics.median(times["runner"])
    checkpoint_seconds = statistics.median(times["checkpoint"])
    ratio = runner_seconds / max(bare_seconds, 1e-9)
    checkpoint_ratio = checkpoint_seconds / max(bare_seconds, 1e-9)
    assert ratio <= MAX_OVERHEAD_RATIO, (
        f"TaskRunner median {runner_seconds:.3f}s vs {bare_seconds:.3f}s "
        f"bare map -- {ratio:.2f}x (budget {MAX_OVERHEAD_RATIO}x)")

    rows = [
        ("bare map (serial loop)", f"{bare_seconds:.3f}s",
         _spread(times["bare"]), "1.00x"),
        ("TaskRunner (retries armed)", f"{runner_seconds:.3f}s",
         _spread(times["runner"]), f"{ratio:.2f}x"),
        ("TaskRunner + JSONL checkpoint", f"{checkpoint_seconds:.3f}s",
         _spread(times["checkpoint"]), f"{checkpoint_ratio:.2f}x"),
        ("overhead budget", "-", "-", f"{MAX_OVERHEAD_RATIO:.2f}x"),
    ]
    write_report("EXP-P5", format_table(
        ["run", "median", "min..max", "vs bare"], rows,
        title=f"Resilient runner overhead ({len(tasks)} campaign cells, "
              f"rounds={ROUNDS:g}, warm, median of {REPEATS} rotated "
              f"rounds)"))
    update_bench_json("exp_p5_task_runner_overhead", {
        "bare_map_seconds": round(bare_seconds, 3),
        "runner_seconds": round(runner_seconds, 3),
        "runner_checkpoint_seconds": round(checkpoint_seconds, 3),
        "overhead_ratio": round(ratio, 3),
        "checkpoint_overhead_ratio": round(checkpoint_ratio, 3),
        "max_overhead_ratio": MAX_OVERHEAD_RATIO,
        "cells": len(tasks),
        "rounds": ROUNDS,
        "repeats": REPEATS,
        "warmup_passes": 1,
    })
