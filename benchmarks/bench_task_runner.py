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

The gate: the runner's wall-clock must stay within ``MAX_OVERHEAD_RATIO``
of the bare map, and the results must be identical on all three paths.
"""

import os
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


def _tasks():
    return [(fault, topology, CouplerAuthority.SMALL_SHIFTING, ROUNDS, 0)
            for fault in DEFAULT_FAULTS for topology in ("bus", "star")]


def _signature(outcomes):
    return [(entry.fault.fault_type.value, entry.topology, entry.victims)
            for entry in outcomes]


def test_exp_p5_task_runner_overhead(benchmark, tmp_path):
    tasks = _tasks()

    started = time.perf_counter()
    bare = benchmark.pedantic(
        lambda: [_injection_worker(task) for task in tasks],
        rounds=1, iterations=1)
    bare_seconds = time.perf_counter() - started

    started = time.perf_counter()
    plain_runner = TaskRunner(max_workers=1, retries=2)
    via_runner = plain_runner.map(_injection_worker, tasks)
    runner_seconds = time.perf_counter() - started

    checkpoint = str(tmp_path / "bench-checkpoint.jsonl")
    started = time.perf_counter()
    checkpointing = TaskRunner(max_workers=1, retries=2,
                               checkpoint=checkpoint)
    via_checkpoint = checkpointing.map(_injection_worker, tasks)
    checkpoint_seconds = time.perf_counter() - started

    signature = _signature(bare)
    assert _signature(via_runner) == signature
    assert _signature(via_checkpoint) == signature
    assert os.path.exists(checkpoint)

    ratio = runner_seconds / max(bare_seconds, 1e-9)
    checkpoint_ratio = checkpoint_seconds / max(bare_seconds, 1e-9)
    assert ratio <= MAX_OVERHEAD_RATIO, (
        f"TaskRunner took {runner_seconds:.2f}s vs {bare_seconds:.2f}s bare "
        f"map -- {ratio:.2f}x (budget {MAX_OVERHEAD_RATIO}x)")

    rows = [
        ("bare map (serial loop)", f"{bare_seconds:.2f}s", "1.00x"),
        ("TaskRunner (retries armed)", f"{runner_seconds:.2f}s",
         f"{ratio:.2f}x"),
        ("TaskRunner + JSONL checkpoint", f"{checkpoint_seconds:.2f}s",
         f"{checkpoint_ratio:.2f}x"),
        ("overhead budget", "-", f"{MAX_OVERHEAD_RATIO:.2f}x"),
    ]
    write_report("EXP-P5", format_table(
        ["run", "wall clock", "vs bare"], rows,
        title=f"Resilient runner overhead ({len(tasks)} campaign cells, "
              f"rounds={ROUNDS:g})"))
    update_bench_json("exp_p5_task_runner_overhead", {
        "bare_map_seconds": round(bare_seconds, 3),
        "runner_seconds": round(runner_seconds, 3),
        "runner_checkpoint_seconds": round(checkpoint_seconds, 3),
        "overhead_ratio": round(ratio, 3),
        "checkpoint_overhead_ratio": round(checkpoint_ratio, 3),
        "max_overhead_ratio": MAX_OVERHEAD_RATIO,
        "cells": len(tasks),
        "rounds": ROUNDS,
    })
