"""Fault-injection campaigns (EXP-S2).

Reproduces, on the discrete-event simulation, the qualitative result of the
fault-injection study the paper builds on (Ademaj et al. [7], Section 2.2):
node faults that propagate to healthy nodes on the **bus** topology (SOS
signals, masquerading cold-start frames, invalid C-states) are contained by
a central guardian on the **star** topology, while babbling idiots are
contained on both (local and central guardians each enforce time windows).

An injection *propagates* when at least one fault-free node becomes a
victim: it is forced to freeze by the clique-avoidance test, or it never
manages to integrate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster import Cluster, ClusterSpec
from repro.core.authority import CouplerAuthority
from repro.faults.injector import apply_fault
from repro.faults.types import FaultDescriptor, FaultType
from repro.network.signal import ReceiverTolerance
from repro.obs.events import Event
from repro.obs.monitors import VerdictMonitor


@dataclass
class InjectionOutcome:
    """Result of one fault injection on one topology."""

    fault: FaultDescriptor
    topology: str
    victims: List[str]
    integrated: List[str]
    states: Dict[str, str]

    @property
    def propagated(self) -> bool:
        """Whether the fault harmed at least one fault-free node."""
        return bool(self.victims)

    @property
    def contained(self) -> bool:
        return not self.propagated


@dataclass
class CampaignResult:
    """All outcomes of a campaign, with table helpers."""

    outcomes: List[InjectionOutcome] = field(default_factory=list)

    def outcome(self, fault_type: FaultType, topology: str) -> InjectionOutcome:
        for entry in self.outcomes:
            if entry.fault.fault_type is fault_type and entry.topology == topology:
                return entry
        raise KeyError(f"no outcome for {fault_type} on {topology}")

    def containment_table(self) -> List[Dict[str, str]]:
        """Rows of fault type vs. per-topology containment verdicts.

        A campaign may inject several distinct faults of the same
        :class:`FaultType` (different targets or parameters).  Agreeing
        outcomes share the row; disagreeing ones render as ``"mixed"``
        rather than silently keeping whichever injection ran last.
        """
        rows: Dict[str, Dict[str, str]] = {}
        for entry in self.outcomes:
            row = rows.setdefault(entry.fault.fault_type.value,
                                  {"fault": entry.fault.fault_type.value})
            verdict = "contained" if entry.contained else "propagated"
            existing = row.get(entry.topology)
            if existing is None:
                row[entry.topology] = verdict
            elif existing != verdict:
                row[entry.topology] = "mixed"
        return list(rows.values())


#: Receiver hardware spread used for the SOS experiments: thresholds differ
#: slightly between units, all compliant with the spec limit of 0.6.
SOS_TOLERANCES = {
    "A": ReceiverTolerance(threshold=0.50),
    "B": ReceiverTolerance(threshold=0.52),
    "C": ReceiverTolerance(threshold=0.58),
    "D": ReceiverTolerance(threshold=0.45),
}

#: The node faults of the paper's Section 2.2 narrative.  The SOS fault
#: activates once the cluster runs (degrading output stage); the
#: invalid-C-state fault activates exactly while a late node is listening,
#: the integration hazard the paper describes.
DEFAULT_FAULTS = [
    FaultDescriptor(FaultType.SOS_SIGNAL, target="B", sos_level=0.55,
                    fault_start_time=2000.0),
    FaultDescriptor(FaultType.MASQUERADE_COLD_START, target="D", masquerade_as=1),
    FaultDescriptor(FaultType.INVALID_C_STATE, target="C",
                    fault_start_time=4750.0),
    FaultDescriptor(FaultType.BABBLING_IDIOT, target="B"),
]

#: Power-on schedule for the masquerade scenario: node C enters listen only
#: after the real cold-starter's first frame, so the masquerading frame is
#: C's *first* sighting (big-bang arms) while it is B's *second* (B
#: integrates on it) -- producing the clique split of Section 2.2 rather
#: than a wholesale takeover of the cluster grid.
MASQUERADE_POWER_ON = {"A": 0.0, "B": 37.0, "C": 700.0, "D": 111.0}

#: Power-on schedule for the invalid-C-state scenario: node D arrives late
#: and starts listening just before the faulty node's slot, so the first
#: explicit-C-state frame it can adopt is the corrupted one.
LATE_INTEGRATOR_POWER_ON = {"A": 0.0, "B": 37.0, "C": 74.0, "D": 4690.0}


def _base_spec(topology: str, authority: CouplerAuthority,
               fault: FaultDescriptor, seed: int) -> ClusterSpec:
    spec = ClusterSpec(topology=topology, authority=authority, seed=seed)
    if fault.fault_type is FaultType.SOS_SIGNAL:
        spec.tolerances = dict(SOS_TOLERANCES)
    elif fault.fault_type is FaultType.MASQUERADE_COLD_START:
        spec.power_on_delays = dict(MASQUERADE_POWER_ON)
    elif fault.fault_type is FaultType.INVALID_C_STATE:
        spec.power_on_delays = dict(LATE_INTEGRATOR_POWER_ON)
    return spec


def injection_cluster(fault: FaultDescriptor, topology: str,
                      authority: CouplerAuthority = CouplerAuthority.SMALL_SHIFTING,
                      seed: int = 0) -> Cluster:
    """A fresh, powered-off cluster with the fault wired in -- the exact
    cluster :func:`run_injection` uses, exposed so equivalence tests can
    attach their own monitors before running it."""
    spec = _base_spec(topology, authority, fault, seed)
    spec = apply_fault(spec, fault)
    return Cluster(spec)


def run_injection(fault: FaultDescriptor, topology: str,
                  authority: CouplerAuthority = CouplerAuthority.SMALL_SHIFTING,
                  rounds: float = 40.0, seed: int = 0) -> InjectionOutcome:
    """Inject one fault into a fresh cluster and report the outcome.

    The victim verdict is evaluated online, in a single pass over the
    event stream, by a subscribed :class:`VerdictMonitor`.
    """
    cluster = injection_cluster(fault, topology, authority=authority, seed=seed)
    victims = VerdictMonitor.for_cluster(cluster)
    cluster.power_on()
    cluster.run(rounds=rounds)
    return InjectionOutcome(
        fault=fault,
        topology=topology,
        victims=victims.victims(),
        integrated=cluster.integrated_nodes(),
        states={name: state.value for name, state in cluster.states().items()})


@dataclass
class BlockingAsymmetryResult:
    """EXP-S4: the paper's Section 1 motivating example, measured.

    A local bus guardian stuck in block-all silences *one node* (which the
    cluster then expels); the same fault in a central guardian silences
    *every node on that channel* -- survivable only because the TTA demands
    a redundant second channel with an independent guardian.
    """

    bus_victims: List[str]
    bus_excluded: List[str]
    bus_active: List[str]
    star_victims: List[str]
    star_active: List[str]
    star_channel0_delivered: int
    star_channel1_delivered: int


def guardian_vs_coupler_blocking(blocked_node: str = "B",
                                 rounds: float = 40.0,
                                 seed: int = 0) -> BlockingAsymmetryResult:
    """Compare a block-all local guardian against a silent central one."""
    bus_spec = ClusterSpec(topology="bus", seed=seed)
    bus_spec = apply_fault(bus_spec, FaultDescriptor(
        FaultType.GUARDIAN_BLOCK_ALL, target=blocked_node))
    bus = Cluster(bus_spec)
    bus_victims = VerdictMonitor.for_cluster(bus)
    bus.power_on()
    bus.run(rounds=rounds)

    star_spec = ClusterSpec(topology="star", seed=seed)
    star_spec = apply_fault(star_spec, FaultDescriptor(
        FaultType.COUPLER_SILENCE, target="0"))
    star = Cluster(star_spec)
    star_victims = VerdictMonitor.for_cluster(star)
    star.power_on()
    star.run(rounds=rounds)

    # On the bus, the silenced node drops out of everyone else's
    # membership even if it never formally freezes.
    survivors = [name for name in bus.controllers if name != blocked_node
                 and bus.controllers[name].integrated]
    excluded = []
    if survivors:
        witness = bus.controllers[survivors[0]]
        excluded = [name for name in bus.controllers
                    if bus.medl.slot_of(name) not in witness.view.membership_set()]

    return BlockingAsymmetryResult(
        bus_victims=bus_victims.victims(),
        bus_excluded=excluded,
        bus_active=[name for name, controller in bus.controllers.items()
                    if controller.state.value == "active"],
        star_victims=star_victims.victims(),
        star_active=[name for name, controller in star.controllers.items()
                     if controller.state.value == "active"],
        star_channel0_delivered=star.topology.channels[0].delivered_count,
        star_channel1_delivered=star.topology.channels[1].delivered_count)


@dataclass
class AdversarialPresetResult:
    """Outcome of one seeded adversarial campaign preset.

    ``rows`` feed ``format_table``; ``verdicts`` maps named expectations
    to booleans (:attr:`holds` is their conjunction -- the CLI exit code);
    ``event_streams`` keeps the adversarial slice of each scenario's event
    stream for JSONL export and CI artifact upload.
    """

    preset: str
    columns: List[str]
    rows: List[Tuple[str, ...]] = field(default_factory=list)
    verdicts: Dict[str, bool] = field(default_factory=dict)
    event_streams: Dict[str, List[Event]] = field(default_factory=dict)

    @property
    def holds(self) -> bool:
        """Whether every named expectation of the preset was met."""
        return bool(self.verdicts) and all(self.verdicts.values())

    def export_jsonl(self, path: str) -> int:
        """Write a self-describing JSONL artifact; returns the line count.

        Line 1 is a header ``{"preset", "verdicts", "holds"}``; every
        following line is one event's ``to_dict`` tagged with the scenario
        it came from under ``"stream"``.
        """
        written = 0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(
                {"preset": self.preset, "verdicts": self.verdicts,
                 "holds": self.holds}, sort_keys=True) + "\n")
            written += 1
            for stream, events in self.event_streams.items():
                for event in events:
                    entry = event.to_dict()
                    entry["stream"] = stream
                    handle.write(json.dumps(entry, sort_keys=True) + "\n")
                    written += 1
        return written


#: Event kinds worth keeping in an exported adversarial stream (the
#: full per-tick stream of a 40-round cluster would dwarf the artifact).
_ADVERSARIAL_EXPORT_KINDS = frozenset({
    "fault_injected", "collision_jam", "byzantine_tick", "sync_round",
    "freeze", "activated", "decentralized_verdict"})


def _export_slice(cluster: Cluster) -> List[Event]:
    return [event for event in cluster.monitor
            if event.kind in _ADVERSARIAL_EXPORT_KINDS]


def _collision_preset(seed: int, rounds: float) -> AdversarialPresetResult:
    """Active collision attackers, bus vs star (paper Section 4).

    A ``colliding_sender`` blasts jam frames over whoever holds the
    medium; a ``mid_frame_jammer`` waits for a frame to start and fires
    into the middle of it.  On the bus the overlap corrupts the frame for
    every receiver; the star's central guardian only forwards traffic
    inside the sender's slot window, so the jams die at the coupler.
    """
    result = AdversarialPresetResult(
        preset="adversarial-collision",
        columns=["attack", "topology", "jams", "blocked", "corrupted",
                 "victims", "verdict"])
    for fault_type in (FaultType.COLLIDING_SENDER, FaultType.MID_FRAME_JAMMER):
        for topology in ("bus", "star"):
            # From power-on: a collision attacker never phase-locks, so it
            # attacks the startup itself (the paper's worst case).
            fault = FaultDescriptor(fault_type, target="B")
            cluster = injection_cluster(fault, topology, seed=seed)
            victims = VerdictMonitor.for_cluster(cluster)
            from repro.obs.monitors import CollisionAttackMonitor

            attack = CollisionAttackMonitor.for_cluster(cluster)
            cluster.power_on()
            cluster.run(rounds=rounds)
            verdict = attack.verdict()
            harmed = victims.victims()
            key = f"{fault_type.value}_{topology}"
            result.event_streams[key] = _export_slice(cluster)
            # Containment is the paper's metric: no fault-free node harmed.
            # The star still lets a few pre-sync jams through (its window
            # only closes once the coupler locks onto the TDMA grid) --
            # visible in the corrupted column, harmless to the verdict.
            result.rows.append((
                fault_type.value, topology, str(verdict["jams"]),
                str(verdict["blocked_jams"]),
                str(verdict["corrupted_deliveries"]),
                ",".join(harmed) or "-",
                "propagated" if harmed else "contained"))
            result.verdicts[f"{key}_attacked"] = attack.attack_observed
            if topology == "star":
                result.verdicts[f"{key}_contained"] = not harmed
            else:
                result.verdicts[f"{key}_propagated"] = bool(harmed)
    return result


#: The Byzantine-clock study cluster: six nodes on a star (the 6-node bus
#: has benign startup contention that freezes two nodes before any clock
#: misbehaves), oscillators spread over the full +/-50 ppm band.
_BYZANTINE_NAMES = ["A", "B", "C", "D", "E", "F"]
_BYZANTINE_PPM = {"A": 50.0, "B": -50.0, "C": 30.0, "D": -30.0,
                  "E": 10.0, "F": -10.0}


def _byzantine_cluster(faults: Sequence[FaultDescriptor],
                       seed: int) -> Cluster:
    from repro.ttp.controller import ControllerConfig

    spec = ClusterSpec(topology="star", node_names=list(_BYZANTINE_NAMES),
                       node_ppm=dict(_BYZANTINE_PPM), seed=seed,
                       monitor_capacity=60000,
                       node_configs={name: ControllerConfig(
                           emit_sync_rounds=True)
                           for name in _BYZANTINE_NAMES})
    for fault in faults:
        spec = apply_fault(spec, fault)
    return Cluster(spec)


def _byzantine_preset(seed: int, rounds: float) -> AdversarialPresetResult:
    """Byzantine clocks vs the FTA ``discard=1`` (paper eq. 10).

    The FTA discards the extreme measurement on each side, so *one*
    drag-pattern Byzantine clock is tolerated: the honest ensemble never
    applies a correction beyond the eq. (10) precision budget.  *Two*
    simultaneous drags put a Byzantine measurement inside the kept set
    and blow the budget, and a single two-faced clock (per-channel skewed
    copies, i.e. two Byzantine faces from one node) defeats ``discard=1``
    on its own -- the classic 3k+1 arithmetic observed on the running DES.
    """
    from repro.obs.monitors import FtaResilienceMonitor

    def byz(target: str, mode: str, magnitude: float) -> FaultDescriptor:
        return FaultDescriptor(FaultType.BYZANTINE_CLOCK, target=target,
                               byzantine_mode=mode,
                               byzantine_magnitude=magnitude,
                               fault_start_time=3000.0)

    scenarios = [
        ("benign", []),
        ("one_drag", [byz("E", "drag", 2.0)]),
        ("two_drags", [byz("E", "drag", 2.0), byz("F", "drag", 1.6)]),
        ("one_two_faced", [byz("E", "two_faced", 2.0)]),
    ]
    result = AdversarialPresetResult(
        preset="adversarial-byzantine",
        columns=["scenario", "byzantine", "budget", "worst correction",
                 "violations", "verdict"])
    for name, faults in scenarios:
        cluster = _byzantine_cluster(faults, seed=seed)
        fta = FtaResilienceMonitor.for_cluster(cluster)
        cluster.power_on()
        cluster.run(rounds=rounds)
        verdict = fta.verdict()
        result.event_streams[name] = _export_slice(cluster)
        result.rows.append((
            name, ",".join(verdict["byzantine_nodes"]) or "-",
            f"{verdict['budget']:.4f}",
            f"{verdict['worst_correction']:.4f}",
            str(verdict["violations"]),
            "within budget" if verdict["holds"] else "budget blown"))
        expect_holds = name in ("benign", "one_drag")
        result.verdicts[f"{name}_{'tolerated' if expect_holds else 'flagged'}"] = (
            fta.holds if expect_holds else not fta.holds)
    return result


#: Sampling rates the decentralized-monitor preset sweeps.
_MONITOR_RATES = (1.0, 0.5, 0.2)


def _monitors_preset(seed: int, rounds: float) -> AdversarialPresetResult:
    """Sampling-based decentralized monitors vs the central monitor.

    Runs the bus collision attack (which produces real victims) once per
    sampling rate, with a full-rate central monitor and a decentralized
    network at that rate attached.  At rate 1.0 the decentralized verdicts
    must be *identical* to the central ones and take no sampling draws;
    lower rates show the fidelity/bandwidth tradeoff (missed events can
    only make verdicts optimistic or pessimistic per node, never invent
    new event content).
    """
    from repro.obs.decentralized import DecentralizedMonitorNetwork

    fault = FaultDescriptor(FaultType.COLLIDING_SENDER, target="B")
    result = AdversarialPresetResult(
        preset="adversarial-monitors",
        columns=["sampling rate", "sampled", "skipped", "central victims",
                 "decentralized victims", "verdict"])
    for rate in _MONITOR_RATES:
        cluster = injection_cluster(fault, "bus", seed=seed)
        central_monitor = VerdictMonitor.for_cluster(cluster)
        network = DecentralizedMonitorNetwork.for_cluster(
            cluster, sampling_rate=rate, seed=seed)
        cluster.power_on()
        cluster.run(rounds=rounds)
        stats = network.sampling_stats()
        central = central_monitor.victims()
        local = network.victims()
        agrees = (local == central
                  and network.completed == central_monitor.completed
                  and network.all_active_time()
                  == central_monitor.all_active_time()
                  and network.holds == central_monitor.holds)
        key = f"rate_{rate:g}"
        result.event_streams[key] = list(network.verdict_events())
        result.rows.append((
            f"{rate:g}", str(stats["sampled"]), str(stats["skipped"]),
            ",".join(central) or "-", ",".join(local) or "-",
            "agrees" if agrees else "diverges"))
        if rate >= 1.0:
            result.verdicts["full_rate_agrees"] = agrees
            result.verdicts["full_rate_draw_free"] = stats["skipped"] == 0
        else:
            result.verdicts[f"{key}_sampled"] = stats["skipped"] > 0
    return result


#: The seeded adversarial campaign presets (``repro campaign --preset``).
ADVERSARIAL_PRESETS: Dict[str, Callable[[int, float],
                                        AdversarialPresetResult]] = {
    "adversarial-collision": _collision_preset,
    "adversarial-byzantine": _byzantine_preset,
    "adversarial-monitors": _monitors_preset,
}


def run_adversarial_preset(name: str, seed: int = 0,
                           rounds: float = 40.0) -> AdversarialPresetResult:
    """Run one named adversarial preset deterministically from ``seed``."""
    try:
        preset = ADVERSARIAL_PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown adversarial preset {name!r} "
            f"(have {', '.join(sorted(ADVERSARIAL_PRESETS))})") from None
    return preset(seed, rounds)


def run_campaign(faults: Optional[List[FaultDescriptor]] = None,
                 topologies: Optional[List[str]] = None,
                 authority: CouplerAuthority = CouplerAuthority.SMALL_SHIFTING,
                 rounds: float = 40.0, seed: int = 0,
                 jobs: Optional[int] = None,
                 retries: int = 0,
                 task_timeout: Optional[float] = None,
                 checkpoint: Optional[str] = None,
                 resume: bool = False,
                 runner: Optional[object] = None) -> CampaignResult:
    """Run every fault on every topology.

    Each injection builds its own cluster from its own seed, so the cells
    are independent; ``jobs`` fans them out over a process pool with
    outcomes (and their order) identical to the serial nested loop.

    The resilience knobs route the campaign through a
    :class:`repro.exec.TaskRunner`: ``retries`` re-runs failing cells with
    deterministic backoff, ``task_timeout`` bounds each cell's wall-clock,
    and ``checkpoint``/``resume`` persist finished cells to JSONL so an
    interrupted campaign restarts from where it stopped.  A pre-built
    ``runner`` (any object with a ``map(function, tasks)`` method) takes
    precedence over the individual knobs.
    """
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}; "
                         f"pass jobs=None (or 1) for the serial path")
    faults = faults if faults is not None else list(DEFAULT_FAULTS)
    topologies = topologies if topologies is not None else ["bus", "star"]
    tasks = [(fault, topology, authority, rounds, seed)
             for fault in faults for topology in topologies]
    if runner is None and (retries or task_timeout is not None
                           or checkpoint is not None or resume):
        from repro.exec import TaskRunner

        runner = TaskRunner(max_workers=jobs if jobs is not None else 1,
                            retries=retries, task_timeout=task_timeout,
                            checkpoint=checkpoint, resume=resume)
    if runner is not None:
        from repro.modelcheck.parallel import _injection_worker

        return CampaignResult(outcomes=runner.map(_injection_worker, tasks))
    if jobs is not None and jobs != 1:
        from repro.modelcheck.parallel import run_injections_parallel

        return CampaignResult(outcomes=run_injections_parallel(tasks, jobs=jobs))
    return CampaignResult(outcomes=[
        run_injection(fault, topology, authority=authority,
                      rounds=rounds, seed=seed)
        for fault, topology, authority, rounds, seed in tasks])
