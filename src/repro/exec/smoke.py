"""Resilience smoke test: ``python -m repro.exec.smoke``.

Runs the EXP-S2 fault-injection campaign through a :class:`TaskRunner`
while sabotaging the harness itself -- one worker process is SIGKILLed
mid-campaign (``--mode kill``), or one task raises a transient exception
on its first attempt (``--mode flaky``) -- and asserts that

* the campaign still completes, with outcomes identical to the
  undisturbed serial run,
* the recovery is *visible*: the runner emitted ``task_retried`` events
  and the retry shows in the :class:`TaskResult` metadata,
* the JSONL checkpoint file exists and holds every finished cell.

CI runs this and archives the checkpoint file as a build artifact.  Exit
status 0 means the execution layer degraded gracefully; any assertion
failure exits 1.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import tempfile
from typing import List, Optional, Tuple

from repro.exec import TaskRunner
from repro.exec.checkpoint import read_entries
from repro.obs.monitors import RunnerHealthMonitor
from repro.sim.monitor import TraceMonitor

#: Campaign geometry kept small so the smoke run stays under a minute.
ROUNDS = 8.0


def _sabotage_once(marker: str, mode: str) -> None:
    """First caller to claim ``marker`` fails; everyone else runs clean."""
    try:
        handle = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return
    os.close(handle)
    if mode == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    raise RuntimeError("smoke-injected transient task failure")


def smoke_worker(task: Tuple) -> object:
    """One campaign cell; the ``sabotage_index``-th cell fails exactly once.

    Striking mid-campaign (rather than on the first cell) leaves earlier
    cells finished when the worker dies, so the run also demonstrates
    that recovery re-runs *only the unfinished* tasks.
    """
    marker, mode, index, sabotage_index, injection_task = task
    if index == sabotage_index:
        _sabotage_once(marker, mode)
    from repro.faults.campaign import _injection_worker

    return _injection_worker(injection_task)


def _campaign_tasks() -> List[Tuple]:
    from repro.core.authority import CouplerAuthority
    from repro.faults.campaign import DEFAULT_FAULTS

    return [(fault, topology, CouplerAuthority.SMALL_SHIFTING, ROUNDS, 0)
            for fault in DEFAULT_FAULTS for topology in ("bus", "star")]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.exec.smoke",
        description="campaign-under-sabotage smoke test of the resilient "
                    "task runner")
    parser.add_argument("--mode", choices=("kill", "flaky"), default="kill",
                        help="kill: SIGKILL one worker mid-campaign; "
                             "flaky: raise once in one task (default: kill)")
    parser.add_argument("--checkpoint", default="runner-checkpoint.jsonl",
                        help="JSONL checkpoint path "
                             "(default: runner-checkpoint.jsonl)")
    parser.add_argument("--jobs", type=int, default=2,
                        help="pool width (default: 2)")
    args = parser.parse_args(argv)

    from repro.faults.campaign import run_campaign

    baseline = run_campaign(rounds=ROUNDS)
    tasks = _campaign_tasks()

    marker = tempfile.mktemp(prefix="repro-smoke-sabotage-")
    sabotage_index = len(tasks) // 2
    bus = TraceMonitor()
    health = RunnerHealthMonitor().attach(bus)
    runner = TaskRunner(max_workers=args.jobs, force_pool=True, retries=2,
                        checkpoint=args.checkpoint, bus=bus)
    report = runner.run(
        smoke_worker,
        [(marker, args.mode, index, sabotage_index, task)
         for index, task in enumerate(tasks)])
    if os.path.exists(marker):
        os.unlink(marker)

    failures: List[str] = []
    if report.failures:
        failures.append(f"{len(report.failures)} task(s) permanently failed: "
                        f"{[(r.index, r.status, r.error) for r in report.failures]}")
    else:
        outcomes = [result.value for result in report.results]
        if outcomes != baseline.outcomes:
            failures.append("sabotaged campaign outcomes differ from the "
                            "undisturbed serial run")
    if not health.retries:
        failures.append("no task_retried event observed -- the sabotage "
                        "did not exercise the retry path")
    if not any(result.retried for result in report.results):
        failures.append("no TaskResult records attempts > 1")
    if args.mode == "kill" and len(health.retried_tasks()) >= len(tasks):
        failures.append("every task was re-run after the worker crash -- "
                        "recovery should re-run only the unfinished ones")
    if not os.path.exists(args.checkpoint):
        failures.append(f"checkpoint file {args.checkpoint} was not written")
    else:
        entries = read_entries(args.checkpoint)
        finished = sum(1 for entry in entries if "index" in entry)
        if finished != len(tasks):
            failures.append(f"checkpoint holds {finished} of "
                            f"{len(tasks)} finished cells")

    print(f"mode={args.mode} tasks={len(tasks)} "
          f"attempts={health.attempts} "
          f"retried={health.retried_tasks()} "
          f"pool_rebuilds={report.pool_rebuilds_used} "
          f"checkpoint={args.checkpoint}")
    for line in failures:
        print(f"FAIL: {line}", file=sys.stderr)
    if not failures:
        print("resilience smoke: OK (campaign identical to serial baseline "
              "despite sabotage)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
