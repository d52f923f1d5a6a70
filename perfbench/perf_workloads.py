"""The benchmark's workloads: op lists, correctness checks, work counts.

An op is one call into a public ``repro`` entry point -- one sweep cell,
one campaign matrix, one preset, one authority check, or one conformance
replay.  Each op carries

* ``check``: returns ``None`` when the output is correct, else the reason;
* ``stats``: the simulated statistics of the output (JSON-able), hashed
  into a digest that must not change across passes, and that must match
  ``reference.json`` at the default seed;
* ``node_slots``: simulated node-slot ticks, N x slots per round x rounds,
  computed from the op's configuration (never from program counters);
* ``states``: the oracle reachable-state count of an authority check.

Every workload takes the benchmark seed; the program only receives the
configurations built from it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional

#: Seed whose digests are pinned in ``reference.json``.
DEFAULT_SEED = 0

SWEEP_SIZES = (16, 32, 64)
ROUNDS = 40

#: Oracle reachable-state counts of the slots=4 verification matrix.  The
#: vectorized engine reports 21403 on full-shifting (it finishes the
#: violating BFS level); throughput always counts the oracle figure.
ORACLE_STATES = {"passive": 14772, "time_windows": 14772,
                 "small_shifting": 14772, "full_shifting": 20806}
COUNTEREXAMPLE_SLOTS = 13

#: Campaign containment the paper reports: every node fault but the
#: babbling idiot propagates on the bus and is contained by the star.
EXPECTED_CONTAINMENT = {
    "sos_signal": {"bus": "propagated", "star": "contained"},
    "masquerade_cold_start": {"bus": "propagated", "star": "contained"},
    "invalid_c_state": {"bus": "propagated", "star": "contained"},
    "babbling_idiot": {"bus": "contained", "star": "contained"},
}

#: Clusters each adversarial preset runs, and their node count (the
#: presets' own configurations; the check pins the cluster count).
PRESET_CLUSTERS = {"adversarial-collision": (4, 4),
                   "adversarial-byzantine": (4, 6),
                   "adversarial-monitors": (3, 4)}

#: Node count of the hand-built paper clusters (ClusterSpec default).
PAPER_NODES = 4


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]
    stats: Callable[[Any], Any]
    node_slots: int = 0
    states: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    #: Work unit of ``work_per_s``: "node_slots" or "states".
    unit: str
    build_ops: Callable[[int], List[Op]]
    #: Set-up probe: build what the first op needs, from a fresh import.
    prepare: Callable[[int], Any]


def digest(stats: Any) -> str:
    """Stable short hash of an op's simulated statistics."""
    text = json.dumps(stats, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def node_slots(nodes: int, rounds: float, clusters: int = 1) -> int:
    """Node-slot ticks of ``clusters`` uniform-schedule runs (one slot per
    node per round)."""
    return int(clusters * nodes * nodes * rounds)


# -- scale-benign ---------------------------------------------------------------


def _check_sweep(size: int, report: Dict[str, Any]) -> Optional[str]:
    cell = report["cells"][0]
    if not cell["completed"]:
        return f"N={size} never reached all-active"
    if cell["integrated"] != size or cell["victims"]:
        return (f"N={size}: {cell['integrated']} integrated, "
                f"victims {cell['victims']}")
    if not 2.0 <= cell["startup_rounds"] <= 4.0:
        return f"N={size}: startup took {cell['startup_rounds']} rounds"
    return None


def scale_benign_ops(seed: int) -> List[Op]:
    from repro.gen.config import GenConfig
    from repro.gen.sweep import run_sweep

    config = GenConfig(seed=seed)
    return [Op(name=f"sweep-n{size}",
               run=partial(run_sweep, config, [size], ROUNDS),
               check=partial(_check_sweep, size),
               stats=lambda report: report["cells"],
               node_slots=node_slots(size, ROUNDS))
            for size in SWEEP_SIZES]


def scale_benign_prepare(seed: int) -> Any:
    scale_benign_ops(seed)
    from repro.cluster import Cluster
    from repro.gen.config import GenConfig
    from repro.gen.materialize import materialize

    return Cluster(materialize(GenConfig(seed=seed).with_nodes(SWEEP_SIZES[0])))


# -- faults-small-n -------------------------------------------------------------


def _check_campaign(result: Any) -> Optional[str]:
    table = {row["fault"]: {"bus": row["bus"], "star": row["star"]}
             for row in result.containment_table()}
    if table != EXPECTED_CONTAINMENT:
        return f"containment {table}"
    return None


def _campaign_stats(result: Any) -> Any:
    return [[outcome.fault.fault_type.value, outcome.topology,
             outcome.victims, outcome.integrated, outcome.states]
            for outcome in result.outcomes]


def _check_preset(name: str, result: Any) -> Optional[str]:
    clusters = PRESET_CLUSTERS[name][0]
    if len(result.rows) != clusters:
        return f"{name} ran {len(result.rows)} clusters, expected {clusters}"
    if not result.holds:
        return "verdicts failed: " + ", ".join(
            key for key, held in result.verdicts.items() if not held)
    return None


def _preset_stats(result: Any) -> Any:
    return {"rows": [list(row) for row in result.rows],
            "verdicts": result.verdicts}


def _check_blocking(result: Any) -> Optional[str]:
    if (result.bus_victims != ["B"] or result.star_victims
            or len(result.star_active) != PAPER_NODES
            or result.star_channel0_delivered != 0
            or result.star_channel1_delivered <= 0):
        return f"blocking asymmetry not reproduced: {result}"
    return None


def faults_small_n_ops(seed: int) -> List[Op]:
    from repro.faults.campaign import (DEFAULT_FAULTS,
                                       guardian_vs_coupler_blocking,
                                       run_adversarial_preset, run_campaign)

    campaign_cells = len(DEFAULT_FAULTS) * 2  # bus and star
    ops = [Op(name="campaign",
              run=partial(run_campaign, rounds=ROUNDS, seed=seed, jobs=2),
              check=_check_campaign, stats=_campaign_stats,
              node_slots=node_slots(PAPER_NODES, ROUNDS, campaign_cells))]
    for name, (clusters, nodes) in PRESET_CLUSTERS.items():
        ops.append(Op(name=name,
                      run=partial(run_adversarial_preset, name, seed, ROUNDS),
                      check=partial(_check_preset, name),
                      stats=_preset_stats,
                      node_slots=node_slots(nodes, ROUNDS, clusters)))
    ops.append(Op(name="blocking",
                  run=partial(guardian_vs_coupler_blocking, rounds=ROUNDS,
                              seed=seed),
                  check=_check_blocking, stats=dataclasses.asdict,
                  node_slots=node_slots(PAPER_NODES, ROUNDS, 2)))
    return ops


def faults_small_n_prepare(seed: int) -> Any:
    faults_small_n_ops(seed)
    from repro.faults.campaign import DEFAULT_FAULTS, injection_cluster

    return injection_cluster(DEFAULT_FAULTS[0], "bus", seed=seed)


# -- verify-conform -------------------------------------------------------------


def _check_verify(authority: Any, engine: str, result: Any) -> Optional[str]:
    from repro.core.verification import expected_verdicts

    if result.property_holds != expected_verdicts()[authority]:
        return f"{authority.value}: verdict {result.check.verdict}"
    states = result.check.states_explored
    if ((engine != "vectorized" or result.property_holds)
            and states != ORACLE_STATES[authority.value]):
        return f"{authority.value}: {states} states"
    if not result.property_holds:
        length = len(result.counterexample)
        if length != COUNTEREXAMPLE_SLOTS:
            return f"{authority.value}: {length}-slot counterexample"
    return None


def _verify_stats(result: Any) -> Any:
    counterexample = result.counterexample
    return {"holds": result.property_holds,
            "states": result.check.states_explored,
            "counterexample": None if counterexample is None
            else len(counterexample),
            "frozen": result.frozen_node()}


def _check_conform(report: Any) -> Optional[str]:
    return None if report.conforms else report.summary()


def verify_conform_ops(seed: int) -> List[Op]:
    from repro.conformance import SCENARIOS, conform_scenario
    from repro.core.authority import all_authorities
    from repro.core.verification import verify_authority

    # The checker models and the replayed traces take no random input, so
    # the seed changes nothing here.
    ops = [Op(name=f"verify-{engine}-{authority.value}",
              run=partial(verify_authority, authority, slots=4, engine=engine),
              check=partial(_check_verify, authority, engine),
              stats=_verify_stats,
              states=ORACLE_STATES[authority.value])
           for engine in ("auto", "vectorized") for authority in all_authorities()]
    for name in ("trace1", "trace2"):
        ops.append(Op(name=f"conform-{name}",
                      run=partial(conform_scenario, name),
                      check=_check_conform,
                      stats=lambda report: report.summary(),
                      node_slots=node_slots(PAPER_NODES,
                                            SCENARIOS[name].rounds)))
    return ops


def verify_conform_prepare(seed: int) -> Any:
    verify_conform_ops(seed)
    from repro.core.authority import all_authorities
    from repro.model.scenarios import scenario_for_authority
    from repro.model.system_model import TTAStartupModel

    return TTAStartupModel(scenario_for_authority(all_authorities()[0], slots=4))


WORKLOADS: Dict[str, Workload] = {workload.name: workload for workload in (
    Workload("scale-benign", "node_slots", scale_benign_ops,
             scale_benign_prepare),
    Workload("faults-small-n", "node_slots", faults_small_n_ops,
             faults_small_n_prepare),
    Workload("verify-conform", "states", verify_conform_ops,
             verify_conform_prepare),
)}
