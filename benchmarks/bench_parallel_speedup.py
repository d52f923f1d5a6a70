"""EXP-P4: parallel fan-out of the verification matrix.

The four authority levels of EXP-V1 are independent model-check runs, so
``repro verify --jobs N`` fans them out over a process pool.  This
benchmark measures wall-clock for the whole matrix three ways:

* **seed-serial** -- the seed repository's path: tuple-state BFS, one
  authority after another (the baseline the speedup gate is anchored to);
* **parallel** -- ``verify_all_authorities`` at 4 requested workers with
  the default (packed) engine.  On a multi-core host the pool overlaps
  the four checks; on a single-core host the runner degrades to a
  serial loop over the packed engine -- either way the wall-clock gate
  below must clear 2x against the seed-serial baseline;
* **forced pool** -- a real 2-worker pool regardless of core count, to
  prove the spawn/pickle path returns verdict- and trace-identical
  results (its wall-clock is reported, not gated: on one core a real
  pool only adds overhead).

Host geometry (CPU count, whether the pool engaged) is recorded in
``BENCH_checker.json`` so the numbers are interpretable off-machine.
"""

import os
import time

from _report import update_bench_json, write_report

from repro.analysis.tables import format_table
from repro.core.verification import verify_all_authorities
from repro.exec import TaskRunner

#: Required wall-clock speedup of the 4-worker run over the seed path.
REQUIRED_SPEEDUP = 2.0


def _matrix_signature(results):
    """Order, verdicts, state counts, and counterexample lengths."""
    return [(authority.value, result.property_holds,
             result.check.states_explored,
             None if result.counterexample is None
             else len(result.counterexample))
            for authority, result in results.items()]


def test_exp_p4_parallel_matrix_speedup(benchmark):
    started = time.perf_counter()
    seed_serial = benchmark.pedantic(
        lambda: verify_all_authorities(engine="tuple"), rounds=1, iterations=1)
    seed_seconds = time.perf_counter() - started

    started = time.perf_counter()
    parallel = verify_all_authorities(jobs=4)
    parallel_seconds = time.perf_counter() - started

    forced = TaskRunner(max_workers=2, force_pool=True)
    started = time.perf_counter()
    forced_results = verify_all_authorities(runner=forced)
    forced_seconds = time.perf_counter() - started

    # Identical verdicts, state counts, and counterexample lengths on
    # every path -- parallelism must never change what is proved.
    signature = _matrix_signature(seed_serial)
    assert _matrix_signature(parallel) == signature
    assert _matrix_signature(forced_results) == signature
    assert forced.pool_engaged, "forced 2-worker pool did not engage"

    speedup = seed_seconds / max(parallel_seconds, 1e-9)
    assert speedup >= REQUIRED_SPEEDUP, (
        f"verify_all_authorities(jobs=4) took {parallel_seconds:.2f}s vs "
        f"{seed_seconds:.2f}s seed-serial -- only {speedup:.2f}x "
        f"(need >= {REQUIRED_SPEEDUP}x)")

    cpus = os.cpu_count() or 1
    rows = [
        ("seed-serial (tuple engine)", f"{seed_seconds:.2f}s", "1"),
        ("--jobs 4 (packed engine)", f"{parallel_seconds:.2f}s",
         str(min(4, cpus))),
        ("forced 2-worker pool", f"{forced_seconds:.2f}s", "2"),
        ("wall-clock speedup", f"{speedup:.1f}x", "-"),
        ("host CPU count", str(cpus), "-"),
    ]
    write_report("EXP-P4", format_table(
        ["run", "wall clock", "workers"], rows,
        title="Verification matrix: serial vs parallel fan-out"))
    update_bench_json("exp_p4_parallel_speedup", {
        "seed_serial_seconds": round(seed_seconds, 3),
        "parallel_jobs4_seconds": round(parallel_seconds, 3),
        "forced_pool2_seconds": round(forced_seconds, 3),
        "wall_clock_speedup_vs_seed": round(speedup, 2),
        "required_speedup": REQUIRED_SPEEDUP,
        "cpu_count": cpus,
        "jobs_requested": 4,
        "forced_pool_engaged": forced.pool_engaged,
        "verdicts": {entry[0]: entry[1] for entry in signature},
        "counterexample_lengths": {entry[0]: entry[3] for entry in signature},
    })
