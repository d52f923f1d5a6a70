"""Convenience assembly of a simulated TTA cluster.

Builds the full stack -- simulator, monitor, topology (bus or star),
controllers with individually drifting clocks -- from a compact
:class:`ClusterSpec`, so examples and fault-injection campaigns do not
repeat the wiring.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.core.authority import CouplerAuthority
from repro.network.guardian import GuardianFault
from repro.network.signal import ReceiverTolerance
from repro.network.star_coupler import CouplerFault
from repro.network.topology import BusTopology, StarTopology
from repro.sim.clock import ClockConfig, DriftingClock
from repro.sim.engine import Simulator
from repro.sim.monitor import TraceMonitor
from repro.sim.rng import RandomStream
from repro.ttp.constants import (
    CHANNEL_COUNT,
    COLD_START_FRAME_BITS,
    MAX_MEMBERSHIP_SLOTS,
    N_FRAME_BITS,
    ControllerStateName,
)
from repro.ttp.controller import ControllerConfig, FreezeReason, TTPController
from repro.ttp.frames import i_frame_wire_bits
from repro.ttp.medl import Medl

DEFAULT_NODE_NAMES = ["A", "B", "C", "D"]


@dataclass
class ClusterSpec:
    """Declarative description of a cluster to simulate."""

    node_names: List[str] = field(default_factory=lambda: list(DEFAULT_NODE_NAMES))
    topology: str = "star"  # "star" or "bus"
    authority: CouplerAuthority = CouplerAuthority.SMALL_SHIFTING
    slot_duration: float = 100.0
    frame_bits: int = 76
    #: Per-node oscillator offsets in ppm (missing nodes default to 0).
    node_ppm: Dict[str, float] = field(default_factory=dict)
    #: Per-node power-on delays in reference time units.
    power_on_delays: Dict[str, float] = field(default_factory=dict)
    #: Per-node controller-config overrides (fault behaviours etc.).
    node_configs: Dict[str, ControllerConfig] = field(default_factory=dict)
    #: Per-node receiver tolerances (hardware spread for the SOS model).
    tolerances: Dict[str, ReceiverTolerance] = field(default_factory=dict)
    #: Star-coupler fault per channel (star topology only).
    coupler_faults: List[CouplerFault] = field(
        default_factory=lambda: [CouplerFault.NONE, CouplerFault.NONE])
    #: Delay before a full-shifting coupler replays its stored frame
    #: (None = the coupler default of one slot); star topology only.
    coupler_replay_delay: Optional[float] = None
    #: Out-of-slot replay budget (None = unlimited); the paper's trace
    #: analysis allows the faulty coupler a single replay error.
    coupler_replay_limit: Optional[int] = None
    #: Local-guardian fault per node (bus topology only).
    guardian_faults: Dict[str, GuardianFault] = field(default_factory=dict)
    #: Passive channel faults (the TTP/C fault hypothesis: channels may
    #: corrupt or drop frames, but never generate them).
    channel_drop_probability: float = 0.0
    channel_corrupt_probability: float = 0.0
    #: Alternate operating modes (timing-compatible schedules); when given,
    #: entry 0 replaces the uniform default schedule and hosts may request
    #: deferred switches to the others.
    modes: Optional[List[Medl]] = None
    seed: int = 0
    #: Bound the event bus to a ring buffer of this many events (None =
    #: unbounded) so multi-thousand-round campaigns stop growing memory.
    monitor_capacity: Optional[int] = None
    #: Fault descriptors wired in by :func:`repro.faults.injector.apply_fault`
    #: (:class:`repro.faults.types.FaultDescriptor` instances); the built
    #: cluster announces each as a ``fault_injected`` event at time zero.
    injected_faults: List = field(default_factory=list)

    def validate(self) -> None:
        """Reject misconfigured specs before any wiring happens.

        Every rule here used to fail silently (typo'd node names ignored
        through ``.get()`` defaults, topology-mismatched fault fields
        never read) or deep inside a run (oversized memberships exploding
        in ``CState.__post_init__`` mid-simulation).
        """
        names = self.node_names
        if not names:
            raise ValueError("cluster needs at least one node")
        duplicates = sorted({name for name in names if names.count(name) > 1})
        if duplicates:
            raise ValueError(
                f"duplicate node names {duplicates}: every node needs its "
                f"own TDMA slot, so names must be unique")
        if len(names) > MAX_MEMBERSHIP_SLOTS:
            raise ValueError(
                f"cluster has {len(names)} nodes but the membership vector "
                f"addresses at most {MAX_MEMBERSHIP_SLOTS} slots; split the "
                f"cluster or reduce node count")
        if self.topology not in ("star", "bus"):
            raise ValueError(f"unknown topology {self.topology!r} "
                             f"(expected 'star' or 'bus')")
        known = set(names)
        for field_name in ("node_ppm", "power_on_delays", "node_configs",
                           "tolerances", "guardian_faults"):
            unknown = sorted(set(getattr(self, field_name)) - known)
            if unknown:
                raise ValueError(
                    f"{field_name} refers to unknown node(s) {unknown}; "
                    f"cluster nodes are {sorted(known)}")
        for probability_name in ("channel_drop_probability",
                                 "channel_corrupt_probability"):
            value = getattr(self, probability_name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(
                    f"{probability_name} must be in [0, 1], got {value}")
            if value > 0.0 and self.seed is None:
                # Mirrors Channel's own guard: a fault probability with no
                # random stream would silently never fire.
                raise ValueError(
                    f"{probability_name}={value} needs a seeded random "
                    f"stream, but the spec's seed is None")
        from repro.ttp.clock_sync import BYZANTINE_MODES

        for name, config in self.node_configs.items():
            if config.byzantine_mode not in BYZANTINE_MODES:
                raise ValueError(
                    f"node {name!r} has byzantine_mode "
                    f"{config.byzantine_mode!r}; expected one of "
                    f"{sorted(BYZANTINE_MODES)}")
        if self.topology == "star":
            if len(self.coupler_faults) != CHANNEL_COUNT:
                raise ValueError(
                    f"coupler_faults needs one entry per channel "
                    f"({CHANNEL_COUNT}), got {len(self.coupler_faults)}")
            if self.guardian_faults:
                raise ValueError(
                    "guardian_faults configures bus-topology local "
                    "guardians; a star cluster has none (use "
                    "coupler_faults)")
        else:
            from repro.network.star_coupler import CouplerFault

            if any(fault is not CouplerFault.NONE
                   for fault in self.coupler_faults):
                raise ValueError(
                    "coupler_faults configures the star coupler; a bus "
                    "cluster has none (use guardian_faults)")
            if (self.coupler_replay_delay is not None
                    or self.coupler_replay_limit is not None):
                raise ValueError(
                    "coupler_replay_delay/coupler_replay_limit configure "
                    "the star coupler; a bus cluster has none")
        if self.modes:
            mode_zero = self.modes[0]
            if mode_zero.node_names() != list(names):
                raise ValueError(
                    f"mode 0 schedules {mode_zero.node_names()} but the "
                    f"spec names {list(names)}; senders must match in "
                    f"slot order")
            for mode_index, mode in enumerate(self.modes):
                for slot in mode.slots:
                    if slot.duration != self.slot_duration:
                        raise ValueError(
                            f"mode {mode_index} slot {slot.slot_id} lasts "
                            f"{slot.duration} but the spec's slot_duration "
                            f"is {self.slot_duration}; controller timing "
                            f"and the event-queue grid follow the spec "
                            f"value, so they must agree")
        self._validate_frame_fit(names)

    def _validate_frame_fit(self, names: List[str]) -> None:
        """Every frame a node *always* sends must fit its slot.

        ``frame_bits`` on a slot is an airtime *allowance* (X-frame slots
        routinely advertise the 2076-bit maximum and send less), so only
        the frames whose size is forced -- the integration I-frame for
        explicit-C-state slots, plus N/cold-start frames -- are checked.
        The same condition is enforced per transmission at runtime; this
        catches it at spec time with the knob to turn named.
        """
        slot_count = len(names)
        if self.modes:
            own_slots = [(mode.slot(index + 1), name)
                         for mode in self.modes
                         for index, name in enumerate(mode.node_names())]
        else:
            own_slots = [(None, name) for name in names]
        for descriptor, name in own_slots:
            explicit = descriptor.explicit_cstate if descriptor else True
            duration = descriptor.duration if descriptor else self.slot_duration
            if explicit:
                required = i_frame_wire_bits(slot_count)
            else:
                required = max(N_FRAME_BITS, COLD_START_FRAME_BITS)
            config = self.node_configs.get(name)
            bit_rate = config.bit_rate if config else 1.0
            if required / bit_rate >= duration:
                raise ValueError(
                    f"node {name!r} must send a {required}-bit frame "
                    f"({required / bit_rate} time units at bit rate "
                    f"{bit_rate}) but its slot lasts only {duration}; "
                    f"raise slot_duration above {required / bit_rate}")


class Cluster:
    """A fully wired simulated cluster."""

    def __init__(self, spec: ClusterSpec) -> None:
        spec.validate()
        self.spec = spec
        self.sim = Simulator()
        self.monitor = TraceMonitor(capacity=spec.monitor_capacity)
        if spec.modes:
            from repro.ttp.modes import ModeSet

            self.mode_set = ModeSet.of(spec.modes)
            self.medl = self.mode_set.schedule(0)
        else:
            from repro.ttp.modes import ModeSet

            self.medl = Medl.uniform(spec.node_names,
                                     slot_duration=spec.slot_duration,
                                     frame_bits=spec.frame_bits)
            self.mode_set = ModeSet.single(self.medl)
        rng = RandomStream(seed=spec.seed, path="cluster")

        if spec.topology == "star":
            self.topology = StarTopology(
                self.sim, self.medl, authority=spec.authority,
                monitor=self.monitor,
                coupler_faults=list(spec.coupler_faults),
                replay_delay=spec.coupler_replay_delay,
                replay_limit=spec.coupler_replay_limit,
                drop_probability=spec.channel_drop_probability,
                corrupt_probability=spec.channel_corrupt_probability,
                rng=rng)
        else:
            self.topology = BusTopology(
                self.sim, self.medl, monitor=self.monitor,
                guardian_faults=dict(spec.guardian_faults),
                drop_probability=spec.channel_drop_probability,
                corrupt_probability=spec.channel_corrupt_probability,
                rng=rng)

        self.controllers: Dict[str, TTPController] = {}
        for index, name in enumerate(spec.node_names):
            ppm = spec.node_ppm.get(name, 0.0)
            clock = DriftingClock(ClockConfig(ppm=ppm))
            base_config = spec.node_configs.get(name, ControllerConfig())
            config = replace(base_config, slot_duration=spec.slot_duration)
            tolerance = spec.tolerances.get(name, ReceiverTolerance())
            controller = TTPController(self.sim, name, self.medl, self.topology,
                                       clock=clock, monitor=self.monitor,
                                       config=config, tolerance=tolerance,
                                       modes=self.mode_set)
            self.controllers[name] = controller

        from repro.obs import events as obs_events

        for descriptor in spec.injected_faults:
            self.monitor.emit(obs_events.FaultInjected(
                time=self.sim.now, source="injector",
                fault_type=descriptor.fault_type.value,
                target=descriptor.target))

    def power_on(self, stagger: float = 37.0) -> None:
        """Power on every node, staggered unless a per-node delay is given.

        The default stagger is deliberately not a multiple of the slot
        duration so that unsynchronized nodes start on incommensurate
        grids, as they would in reality.
        """
        for index, (name, controller) in enumerate(self.controllers.items()):
            delay = self.spec.power_on_delays.get(name, index * stagger)
            controller.power_on(delay)

    def active_mode(self) -> int:
        """Mode index the integrated part of the cluster is running in
        (0 when nobody has integrated yet)."""
        for controller in self.controllers.values():
            if controller.integrated:
                return controller.current_mode
        return 0

    def active_medl(self) -> Medl:
        """Schedule of the currently active mode."""
        return self.mode_set.schedule(self.active_mode())

    def run(self, rounds: float = 20.0, pause_gc: bool = False) -> None:
        """Run the simulation for ``rounds`` more TDMA rounds.

        The horizon is computed from the *active* mode's schedule, not
        mode 0's -- after a deferred mode change the two can in principle
        disagree on round duration, and ``rounds`` must mean rounds of
        the schedule actually on the bus.

        ``pause_gc`` forwards to :meth:`Simulator.run` -- it disables the
        cyclic collector for the duration of the run (batch experiment
        sweeps; the hot path allocates acyclic objects only).
        """
        horizon = self.sim.now + rounds * self.active_medl().round_duration()
        self.sim.run(until=horizon, pause_gc=pause_gc)

    # -- outcome queries -----------------------------------------------------------

    def states(self) -> Dict[str, ControllerStateName]:
        """Current protocol state of every node."""
        return {name: controller.state
                for name, controller in self.controllers.items()}

    def integrated_nodes(self) -> List[str]:
        """Nodes currently active or passive."""
        return [name for name, controller in self.controllers.items()
                if controller.integrated]

    def clique_frozen_nodes(self) -> List[str]:
        """Nodes forced to freeze by the clique-avoidance test."""
        return [name for name, controller in self.controllers.items()
                if controller.state is ControllerStateName.FREEZE
                and controller.freeze_reason is FreezeReason.CLIQUE_ERROR]

    def protocol_frozen_nodes(self) -> List[str]:
        """Nodes frozen by the protocol itself (clique error or
        acknowledgment send-fault), as opposed to host commands."""
        from repro.ttp.controller import PROTOCOL_FORCED_FREEZES

        return [name for name, controller in self.controllers.items()
                if controller.state is ControllerStateName.FREEZE
                and controller.freeze_reason in PROTOCOL_FORCED_FREEZES]

    def legitimate_grid_phases(self) -> List[float]:
        """Round phases of every grid established by a *healthy*
        cold-starter.  Two healthy nodes racing to cold-start both propose
        legitimate grids (the clique test picks the winner); a masquerading
        node's grid never appears here because it forges cold-start frames
        without entering the cold-start state."""
        from repro.ttp.controller import NodeFaultBehavior

        healthy = {name for name, controller in self.controllers.items()
                   if controller.config.fault is NodeFaultBehavior.HEALTHY}
        round_duration = self.medl.round_duration()
        phases = []
        for record in self.monitor.select(kind="cold_start_grid"):
            node_name = record.source.split(":", 1)[1]
            if node_name in healthy:
                phases.append(record.details["round_start"] % round_duration)
        return phases

    def legitimate_grid_phase(self) -> Optional[float]:
        """First legitimate grid phase (see :meth:`legitimate_grid_phases`)."""
        phases = self.legitimate_grid_phases()
        return phases[0] if phases else None

    def healthy_victims(self, grid_tolerance: float = 1.0) -> List[str]:
        """Fault-free nodes harmed by the injected fault.

        A healthy node is a victim when it was forced to freeze by the
        clique-avoidance test, never managed to integrate, or ended up
        running on a TDMA grid other than the legitimate one (grid capture
        by a masquerading cold-starter -- the paper's "integrate into the
        cluster at the incorrect time").
        """
        from repro.ttp.controller import NodeFaultBehavior

        legit_phases = self.legitimate_grid_phases()
        round_duration = self.medl.round_duration()
        victims = []
        for name, controller in self.controllers.items():
            if controller.config.fault is not NodeFaultBehavior.HEALTHY:
                continue
            from repro.ttp.controller import PROTOCOL_FORCED_FREEZES

            clique_frozen = (controller.state is ControllerStateName.FREEZE
                             and controller.freeze_reason in PROTOCOL_FORCED_FREEZES)
            wrong_grid = False
            if legit_phases and controller.round_anchor is not None:
                phase = controller.round_anchor % round_duration
                distance = min(
                    min((phase - legit) % round_duration,
                        (legit - phase) % round_duration)
                    for legit in legit_phases)
                wrong_grid = distance > grid_tolerance
            if clique_frozen or wrong_grid or not controller.ever_integrated:
                victims.append(name)
        return victims
