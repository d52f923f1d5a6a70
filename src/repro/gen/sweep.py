"""Scale sweeps: containment and startup latency as functions of N.

The sweep grid is (cluster size x trial); every cell materializes the
config at that size, runs a startup, and reports online-monitor verdicts
(startup latency in rounds, healthy victims, containment).  Cells are
sharded across workers through :class:`repro.exec.runner.TaskRunner`, so
sweeps inherit its retries, per-task timeouts, and JSONL
checkpoint/resume.

Determinism: a cell's result is a pure function of (config, size, trial),
and the report carries no wall-clock measurements -- identical inputs
produce byte-identical reports, which is what makes checkpoint/resume and
cross-host comparison sound.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.cluster import Cluster
from repro.exec.runner import TaskRunner
from repro.gen.config import GenConfig
from repro.gen.materialize import materialize
from repro.obs.monitors import VerdictMonitor

#: Ring-buffer bound for sweep runs: every verdict is computed online, so
#: cells never need the full trace and memory stays flat in N and rounds.
SWEEP_MONITOR_CAPACITY = 4096


def sweep_cell(task: Dict[str, Any]) -> Dict[str, Any]:
    """Run one (size, trial) cell; top-level so pool workers can pickle it.

    The trial index perturbs the seed (seed + trial), so trials are
    independent draws of the same configured distributions.
    """
    config = GenConfig.from_json(task["config"])
    config = config.with_nodes(task["size"]).with_seed(
        config.seed + task["trial"])
    spec = materialize(config)
    spec.monitor_capacity = SWEEP_MONITOR_CAPACITY
    cluster = Cluster(spec)
    verdicts = VerdictMonitor.for_cluster(cluster)
    # Sub-unit monitor_sampling additionally attaches the sampled per-node
    # monitors and reports their agreement with the full-rate verdict;
    # full-rate configs keep the exact report keys (and bytes) they always
    # produced.
    sampling = config.faults.monitor_sampling
    network = None
    if sampling < 1.0:
        from repro.obs.decentralized import DecentralizedMonitorNetwork

        network = DecentralizedMonitorNetwork.for_cluster(
            cluster, sampling_rate=sampling, seed=config.seed)
    cluster.power_on()
    cluster.run(rounds=task["rounds"], pause_gc=True)

    round_duration = cluster.medl.round_duration()
    all_active = verdicts.all_active_time()
    harmed = verdicts.victims()
    faulty = bool(spec.injected_faults)
    cell = {
        "size": task["size"],
        "trial": task["trial"],
        "completed": all_active is not None,
        "startup_rounds": (None if all_active is None
                           else round(all_active / round_duration, 4)),
        "victims": harmed,
        "faulty": faulty,
        # Containment: an injected fault harmed no healthy node.  Benign
        # cells have nothing to contain and report None.
        "contained": (None if not faulty else not harmed),
        "integrated": len(cluster.integrated_nodes()),
        "typed_events": sum(cluster.monitor.kind_counts.values()),
    }
    if network is not None:
        stats = network.sampling_stats()
        cell["monitor_sampling"] = sampling
        cell["sampled_events"] = stats["sampled"]
        cell["skipped_events"] = stats["skipped"]
        cell["victims_agree"] = network.victims() == harmed
    return cell


def _aggregate(size: int, cells: List[Dict[str, Any]]) -> Dict[str, Any]:
    completed = [cell for cell in cells if cell["completed"]]
    latencies = [cell["startup_rounds"] for cell in completed]
    judged = [cell for cell in cells if cell["contained"] is not None]
    return {
        "nodes": size,
        "trials": len(cells),
        "completed_trials": len(completed),
        "startup_rounds_mean": (round(sum(latencies) / len(latencies), 4)
                                if latencies else None),
        "startup_rounds_max": max(latencies) if latencies else None,
        "containment_rate": (round(sum(cell["contained"]
                                       for cell in judged) / len(judged), 4)
                             if judged else None),
        "victim_trials": sum(1 for cell in cells if cell["victims"]),
        "typed_events_mean": round(sum(cell["typed_events"]
                                       for cell in cells) / len(cells), 1),
    }


def run_sweep(config: GenConfig,
              sizes: List[int],
              rounds: float = 60.0,
              trials: int = 1,
              jobs: Optional[int] = None,
              retries: int = 0,
              task_timeout: Optional[float] = None,
              checkpoint: Optional[str] = None,
              resume: bool = False,
              bus: Optional[Any] = None) -> Dict[str, Any]:
    """Sweep the config over ``sizes``; returns the deterministic report."""
    if not sizes:
        raise ValueError("sweep needs at least one cluster size")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    config_json = config.to_json()
    tasks = [{"config": config_json, "size": size, "trial": trial,
              "rounds": rounds}
             for size in sizes for trial in range(trials)]
    runner = TaskRunner(max_workers=jobs or 1, retries=retries,
                        task_timeout=task_timeout, checkpoint=checkpoint,
                        resume=resume, bus=bus)
    cells = runner.map(sweep_cell, tasks)
    rows = []
    for size in sizes:
        rows.append(_aggregate(
            size, [cell for cell in cells if cell["size"] == size]))
    return {
        "config": config_json,
        "rounds": rounds,
        "trials": trials,
        "sizes": list(sizes),
        "rows": rows,
        "cells": cells,
    }


def dump_report(report: Dict[str, Any], path) -> None:
    """Canonical JSON on disk: identical sweeps are byte-identical."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
