"""The TTP/C protocol controller, driven by the discrete-event simulator.

Implements the nine-state controller (paper Section 4.3) over a real
(simulated) timeline: each controller runs on its own drifting oscillator,
wakes at its local slot boundaries, judges the traffic observed during the
elapsed slot, and follows the protocol's startup, integration,
clique-avoidance, and acknowledgment rules.

Protocol services implemented: startup (big-bang, listen timeout),
integration with grid phase-locking, clique avoidance, group membership
with the sender-inclusion agreement rule, explicit acknowledgment (send
self-check via successor membership vectors), fault-tolerant-average clock
synchronization, and the CNI host interface for application data.

Deliberate simplifications (documented in DESIGN.md):

* A passive node becomes active at its own slot (sending immediately)
  unless the clique counters vote it into the minority.
* ``await``/``test``/``download`` are modeled as inert host states.

Fault behaviours of *nodes* (for the fault-injection campaigns) are part of
the controller so that faulty senders still follow the timing machinery:
masquerading cold-start frames, invalid C-states, babbling, and SOS-shaped
signals.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.network.channel import Transmission
from repro.network.signal import (NOMINAL_SHAPE, ReceiverTolerance,
                                  SignalShape)
from repro.obs import events as ev
from repro.sim.clock import ClockConfig, DriftingClock
from repro.sim.engine import Event, Simulator
from repro.sim.monitor import TraceMonitor
from repro.ttp.acknowledgment import AckOutcome
from repro.ttp.clique import CliqueVerdict, clique_avoidance_test
from repro.ttp.constants import (
    MAX_MEMBERSHIP_SLOTS,
    ControllerStateName,
    FrameKind,
)
from repro.ttp.cstate import CState
from repro.ttp.frames import (
    SILENCE,
    ColdStartFrame,
    Frame,
    FrameObservation,
    IFrame,
    NFrame,
    XFrame,
)
from repro.ttp.medl import Medl, MedlDispatch
from repro.ttp.membership import MembershipView, word_members
from repro.ttp.startup import StartupRules

#: Hot-path aliases: the tick path compares controller states thousands of
#: times per simulated second; binding the members once skips the repeated
#: enum class attribute lookups.
_FREEZE = ControllerStateName.FREEZE
_INIT = ControllerStateName.INIT
_LISTEN = ControllerStateName.LISTEN
_COLD_START = ControllerStateName.COLD_START
_ACTIVE = ControllerStateName.ACTIVE
_PASSIVE = ControllerStateName.PASSIVE


class FreezeReason(enum.Enum):
    """Why a controller entered the freeze state."""

    POWER_ON = "power_on"
    HOST_COMMAND = "host_command"
    #: Protocol-forced freeze: lost the clique-avoidance majority test.
    CLIQUE_ERROR = "clique_error"
    #: Protocol-forced freeze: two successors denied our membership (the
    #: explicit acknowledgment detected a send fault).
    ACK_FAILURE = "ack_failure"


#: Freeze reasons imposed by the protocol (vs commanded by the host).
PROTOCOL_FORCED_FREEZES = frozenset({FreezeReason.CLIQUE_ERROR,
                                     FreezeReason.ACK_FAILURE})


class NodeFaultBehavior(enum.Enum):
    """Injected node fault modes (paper Section 2.2 fault classes)."""

    HEALTHY = "healthy"
    #: Sends a cold-start frame claiming another node's round slot.
    MASQUERADE_COLD_START = "masquerade_cold_start"
    #: Sends frames whose C-state is wrong (stale/corrupted).
    INVALID_C_STATE = "invalid_c_state"
    #: Transmits in every slot regardless of the schedule.
    BABBLING_IDIOT = "babbling_idiot"
    #: Transmits marginal (slightly-off-specification) signals.
    SOS_SIGNAL = "sos_signal"
    #: Active collision attacker: fires jam frames on its own tick grid
    #: from the listen/cold-start states, deliberately overlapping other
    #: senders' transmissions (the channel collision path corrupts both).
    COLLIDING_SENDER = "colliding_sender"
    #: Targeted collision attacker: observes completed frames and lands a
    #: jam a fixed offset into the *next* slot of the victims' grid, so the
    #: jam overlaps mid-frame rather than colliding by chance.
    MID_FRAME_JAMMER = "mid_frame_jammer"
    #: Byzantine clock: feeds adversarial deviations into the cluster's
    #: fault-tolerant-average clock sync (rush/drag/oscillate patterns on
    #: its own grid, or two-faced per-channel skews).
    BYZANTINE_CLOCK = "byzantine_clock"


@dataclass
class ControllerConfig:
    """Tunable controller parameters."""

    #: Local slot length in local time units (all nodes share the nominal).
    slot_duration: float = 100.0
    #: Wire bit rate in bits per local time unit.
    bit_rate: float = 1.0
    #: Slots spent in init before entering listen.
    init_delay_slots: int = 1
    #: Whether frame correctness also requires matching membership vectors
    #: (TTP/C's actual rule; the sender is expected to include itself).
    strict_membership_agreement: bool = True
    #: Node fault behaviour for injection campaigns.
    fault: NodeFaultBehavior = NodeFaultBehavior.HEALTHY
    #: Slot the masquerading node claims (MASQUERADE_COLD_START).
    masquerade_as: int = 1
    #: Local tick index at which the masquerading frame is sent (chosen to
    #: fall between the first cold-starter's first and second frames, when
    #: listeners have their big-bang flag set and will integrate on it).
    masquerade_tick: int = 7
    #: Signal shape used by an SOS-faulty sender.
    sos_level: float = 0.55
    sos_offset: float = 0.0
    #: Global-time corruption applied by an INVALID_C_STATE sender.
    cstate_corruption: int = 7
    #: Reference time at which the injected node fault becomes active
    #: (0 = from power-on).  Lets campaigns model runtime faults hitting a
    #: cluster that started healthy, the way SWIFI/heavy-ion injections do.
    fault_start_time: float = 0.0
    #: Run the explicit-acknowledgment service: after each own send, the
    #: membership vectors of the next valid frames reveal whether the send
    #: was received; two denials force a send-fault freeze.
    explicit_acknowledgment: bool = True
    #: Run the distributed clock-synchronization service: measure each
    #: frame's arrival deviation against the local slot grid and apply the
    #: fault-tolerant-average correction once per round.  Without it, real
    #: crystal spreads (+/-100 ppm) slide the receivers' slot windows off
    #: the senders' grid within a few hundred rounds.
    clock_sync_enabled: bool = True
    #: Largest correction applied per round, in local time units (the
    #: spec's precision window); larger measured deviations indicate a
    #: faulty frame and must not be chased.
    max_sync_correction: float = 5.0
    #: How far into the victim slot a MID_FRAME_JAMMER's jam lands, in
    #: local time units (must be < slot_duration; offsets shorter than the
    #: frame airtime overlap the frame itself).
    jam_offset: float = 30.0
    #: Deviation pattern of a BYZANTINE_CLOCK node (see
    #: :data:`repro.ttp.clock_sync.BYZANTINE_MODES`).
    byzantine_mode: str = "rush"
    #: Grid-offset magnitude of a BYZANTINE_CLOCK node, in local time
    #: units.  Kept inside ``max_sync_correction`` by default: a larger
    #: offset would be rejected by every receiver's precision window and
    #: never reach the FTA.
    byzantine_magnitude: float = 2.0
    #: Emit a ``sync_round`` event with the applied FTA correction at each
    #: once-per-round resynchronization.  Off by default so existing
    #: traces (including the conformance goldens) are unchanged.
    emit_sync_rounds: bool = False


class TTPController:
    """One TTP/C node: host interface, protocol state machine, timing."""

    def __init__(self, sim: Simulator, name: str, medl: Medl, topology,
                 clock: Optional[DriftingClock] = None,
                 monitor: Optional[TraceMonitor] = None,
                 config: Optional[ControllerConfig] = None,
                 tolerance: Optional[ReceiverTolerance] = None,
                 modes: Optional["ModeSet"] = None) -> None:
        self.sim = sim
        self.name = name
        self.medl = medl
        self.topology = topology
        self.clock = clock or DriftingClock(ClockConfig())
        self.monitor = monitor
        self.config = config or ControllerConfig()
        self.tolerance = tolerance or ReceiverTolerance()

        from repro.ttp.modes import ModeSet

        if medl.slot_count > MAX_MEMBERSHIP_SLOTS:
            raise ValueError(
                f"MEDL has {medl.slot_count} slots but the membership "
                f"vector supports at most {MAX_MEMBERSHIP_SLOTS}")
        #: Operating modes; index 0 is the mode the cluster starts in.
        self.modes = modes or ModeSet.single(medl)
        self.current_mode = 0
        #: Deferred mode change: the mode index the cluster switches to at
        #: the next round boundary (None = no pending change).  On the wire
        #: the C-state's DMC field carries ``index + 1`` (0 = no request),
        #: so a switch back to mode 0 is expressible.
        self.pending_mode: Optional[int] = None
        #: A pending change only takes effect after it has circulated on
        #: the bus (the requester must announce it in a frame first), so
        #: the whole cluster switches at the same round boundary.
        self._dmc_announced = False
        self.own_slot = medl.slot_of(name)
        #: Cached event-source tag (one string build per emit adds up).
        self._source = f"node:{name}"
        #: Slots per round, resolved once (``Medl.slot_count`` is a
        #: property over an immutable slot tuple; the per-slot paths read
        #: it thousands of times per simulated second).
        self._slot_count = medl.slot_count
        #: Compiled dispatch state for the current mode's schedule --
        #: installed once per mode change, indexed per slot thereafter.
        self._mode_schedule: Medl = medl
        self._mode_dispatch: MedlDispatch = medl.dispatch()
        self._own_descriptor = medl.slot(self.own_slot)
        self._install_mode(self.current_mode)
        self.state = ControllerStateName.FREEZE
        self.freeze_reason: FreezeReason = FreezeReason.POWER_ON
        self.slot = self.own_slot
        self.view = MembershipView(own_slot=self.own_slot)
        #: The C-state as plain ints, advanced once per slot; the
        #: :attr:`cstate` snapshot is built from them on first read.
        self._global_time = 0
        self._position = self.own_slot
        self._member_word = 0
        self._dmc = 0
        self._cstate: Optional[CState] = None
        self.startup = StartupRules(slot_count=medl.slot_count, node_slot=self.own_slot)
        self.ever_integrated = False
        self.tick_count = 0
        self._init_slots_left = 0
        self._mailbox: List[Tuple[int, Transmission, bool]] = []
        self._tick_event: Optional[Event] = None
        self._judged_since_test = 0
        #: Frame identity and completion time of the last frame consumed
        #: by the listen path and of the last clock-sync measurement, kept
        #: as scalars so a channel replica (same frame, same instant) is
        #: dropped without building a key per reception.  ``id()`` is
        #: never 0, so the initial values match no frame.
        self._last_listen_frame = 0
        self._last_listen_time = 0.0
        self._last_sync_frame = 0
        self._last_sync_time = 0.0
        self._skip_next_judge = False
        #: Reference time of the round start of the grid this node joined
        #: (set at first activation); used to detect grid capture.
        self.round_anchor: Optional[float] = None
        from repro.ttp.clock_sync import ClockSynchronizer
        from repro.ttp.cni import CommunicationNetworkInterface

        self.synchronizer = ClockSynchronizer(
            discard=1, max_correction=self.config.max_sync_correction)
        self._slot_start_ref = 0.0
        self._sync_adjustment = 0.0
        #: Byzantine-clock bookkeeping: the absolute grid offset currently
        #: held (corrections are deltas between targets) and the round
        #: counter driving the oscillate pattern.
        self._byz_offset = 0.0
        self._byz_round = 0
        #: Mid-frame jammer: last (frame identity, completion time) that
        #: armed a jam, so channel replicas arm only one.
        self._last_jam_key: Optional[Tuple[int, float]] = None
        #: Host interface: applications post payloads and read received
        #: state messages here.
        self.cni = CommunicationNetworkInterface(own_slot=self.own_slot)
        from repro.ttp.acknowledgment import AcknowledgmentState

        self.ack = AcknowledgmentState(own_slot=self.own_slot)

        #: Healthy nodes skip the fault-injection hook per tick.
        self._faulty = self.config.fault is not NodeFaultBehavior.HEALTHY

        topology.attach_receiver(self._on_transmission)

    # -- host interface -----------------------------------------------------------

    def power_on(self, delay: float = 0.0) -> None:
        """Host starts the controller ``delay`` reference time units from now."""
        self.sim.schedule(delay, self._enter_init)

    def host_freeze(self) -> None:
        """Host commands a freeze (allowed at any time)."""
        self._freeze(FreezeReason.HOST_COMMAND)

    def request_mode_change(self, mode: int) -> None:
        """Host requests a deferred mode change.

        The request rides in this node's next frames; every receiver
        latches it and the whole cluster switches at the next round
        boundary.  Requesting the current mode cancels a pending request.
        """
        if not self.modes.valid_mode(mode):
            raise ValueError(f"unknown mode {mode!r} "
                             f"(have 0..{self.modes.mode_count - 1})")
        self.pending_mode = None if mode == self.current_mode else mode
        self._dmc_announced = False

    @property
    def cstate(self) -> CState:
        """The C-state as of the last slot advance (or assignment).

        Built on first read and cached until the next advance: a node
        reads it only to send, about once per round, while the slot
        judge compares against the int fields directly.  The membership
        is the view's word at advance time, so judging later slots does
        not change the snapshot.
        """
        cstate = self._cstate
        if cstate is None:
            word = self._member_word
            view = self.view
            members = (view.membership_set() if word == view.word
                       else word_members(word))
            cstate = self._cstate = CState._unchecked(
                self._global_time, self._position, members, self._dmc, word)
        return cstate

    @cstate.setter
    def cstate(self, cstate: CState) -> None:
        self._global_time = cstate.global_time
        self._position = cstate.medl_position
        self._member_word = cstate.membership_word()
        self._dmc = cstate.dmc_mode
        self._cstate = cstate

    @property
    def integrated(self) -> bool:
        """Whether the node currently participates in the cluster."""
        return self.state in (ControllerStateName.ACTIVE, ControllerStateName.PASSIVE)

    # -- receive path ----------------------------------------------------------------

    def _on_transmission(self, channel_index: int, transmission: Transmission,
                         corrupted: bool) -> None:
        if transmission.source == self.name:
            return  # own frames are accounted for at send time
        if self.state is _LISTEN:
            if self._faulty and self._collision_attack_active():
                # An active collision attacker never phase-locks onto the
                # cluster grid -- it keeps attacking from the listen state.
                self._maybe_arm_targeted_jam(transmission)
                return
            # Listening nodes react to frames as they arrive: integration
            # aligns the local slot grid to the observed cluster grid.
            self._listen_receive(transmission, corrupted)
            return
        now = self.sim.now
        frame_id = id(transmission.frame)
        if frame_id == self._last_listen_frame and now == self._last_listen_time:
            # Second-channel copy of the frame we just integrated on.
            return
        if self.config.clock_sync_enabled and not corrupted:
            # Clock-sync measurement: senders transmit at the slot start,
            # so the expected completion is slot start + airtime.  Each
            # frame is measured once (the channel replica arrives at the
            # same instant and would defeat the FTA's outlier discard),
            # and only deviations inside the precision window count --
            # larger ones indicate a frame that does not belong to this
            # slot, which the protocol must not chase.
            expected = self._slot_start_ref + transmission.duration
            deviation = now - expected
            max_correction = self.config.max_sync_correction
            if ((frame_id != self._last_sync_frame
                 or now != self._last_sync_time)
                    and -max_correction <= deviation <= max_correction):
                self._last_sync_frame = frame_id
                self._last_sync_time = now
                self.synchronizer.observe(self.slot, expected, now)
        self._mailbox.append((channel_index, transmission, corrupted))

    def _make_observation(self, transmission: Transmission,
                          corrupted: bool) -> FrameObservation:
        """Build the receiver's view of one completed transmission."""
        return FrameObservation(
            frame=transmission.frame,
            timing_offset=transmission.shape.timing_offset,
            signal_level=transmission.shape.level,
            corrupted=corrupted)

    def _fold_mailbox(self, mailbox) -> Dict[int, FrameObservation]:
        """Fold the transmissions completed during the elapsed slot into one
        observation per channel.

        More than one transmission on a channel within one slot window is
        interference: the slot is judged invalid on that channel.
        """
        if not mailbox:
            return {}
        if len(mailbox) == 1:
            # Fast path: one completed transmission on one channel.
            channel_index, transmission, corrupted = mailbox[0]
            return {channel_index: self._make_observation(transmission,
                                                          corrupted)}
        if len(mailbox) == 2 and mailbox[0][0] != mailbox[1][0]:
            # Steady state: one frame per channel, no interference.
            index0, tx0, corrupted0 = mailbox[0]
            index1, tx1, corrupted1 = mailbox[1]
            return {index0: self._make_observation(tx0, corrupted0),
                    index1: self._make_observation(tx1, corrupted1)}

        per_channel: Dict[int, List[Tuple[Transmission, bool]]] = {}
        for channel_index, transmission, corrupted in mailbox:
            per_channel.setdefault(channel_index, []).append((transmission, corrupted))

        observations: Dict[int, FrameObservation] = {}
        for channel_index, entries in per_channel.items():
            if len(entries) > 1:
                observations[channel_index] = FrameObservation(
                    frame=entries[0][0].frame, corrupted=True)
                continue
            transmission, corrupted = entries[0]
            observations[channel_index] = self._make_observation(transmission,
                                                                 corrupted)
        return observations

    # -- state transitions -------------------------------------------------------------

    def _enter_init(self) -> None:
        if self.state is not ControllerStateName.FREEZE:
            return
        self.state = ControllerStateName.INIT
        self._init_slots_left = self.config.init_delay_slots
        self._emit(ev.StateChange, state=self.state.value)
        self._schedule_tick()

    def _enter_listen(self) -> None:
        self.state = ControllerStateName.LISTEN
        self.startup.reset()
        self.ack.disarm()
        self.synchronizer.reset()
        self._sync_adjustment = 0.0
        self._emit(ev.StateChange, state=self.state.value)

    def _enter_cold_start(self) -> None:
        self.state = ControllerStateName.COLD_START
        self.slot = self.own_slot
        self.cstate = CState(global_time=self._global_time,
                             medl_position=self.own_slot,
                             membership=frozenset({self.own_slot}))
        self.view.assign((self.own_slot,))
        self.view.reset_round()
        self._judged_since_test = 0
        self._emit(ev.StateChange, state=self.state.value)
        self._emit(ev.ColdStartGrid,
                   round_start=self.sim.now
                   - self.medl.slot_start_offset(self.own_slot))
        self._send_cold_start()

    def _integrate(self, new_slot: int, global_time: int,
                   membership: frozenset, via: str) -> None:
        self.slot = new_slot
        self.cstate = CState(global_time=global_time % (1 << 16),
                             medl_position=new_slot,
                             membership=membership)
        self.view.adopt(self.cstate)
        self.view.reset_round()
        self._judged_since_test = 0
        self.state = ControllerStateName.PASSIVE
        self.ever_integrated = True
        self.ack.disarm()
        self.pending_mode = None
        self._emit(ev.Integrated, via=via, slot=new_slot)
        self._emit(ev.StateChange, state=self.state.value)

    def _freeze(self, reason: FreezeReason) -> None:
        self.state = ControllerStateName.FREEZE
        self.freeze_reason = reason
        self._emit(ev.Freeze, reason=reason.value,
                   was_integrated=self.ever_integrated)
        if self._tick_event is not None:
            self._tick_event.cancel()
            self._tick_event = None

    # -- timing ---------------------------------------------------------------------------

    def _install_mode(self, mode: int) -> None:
        """Compile the mode's TDMA schedule into per-slot dispatch state.

        Runs once per mode change (not once per slot): the schedule, its
        dispatch table, and this node's own slot descriptor are resolved
        here so the per-tick path only indexes into them.
        """
        schedule = self.modes.schedule(mode)
        self._mode_schedule = schedule
        self._mode_dispatch = schedule.dispatch()
        self._own_descriptor = schedule.slot(self.own_slot)

    def _schedule_tick(self, fired: Optional[Event] = None) -> None:
        """Arm the next tick one (sync-adjusted) local slot from now.

        ``fired`` is the tick event that is running, which is re-armed
        (after cancelling a tick created while it ran, as
        :meth:`_schedule_tick_ref` would); without one (power-on) a new
        tick event is created.
        """
        delay = self.config.slot_duration + self._sync_adjustment
        self._sync_adjustment = 0.0
        ref_delay = max(delay, 1e-9) / self.clock.rate
        if fired is None:
            self._schedule_tick_ref(ref_delay)
            return
        stale = self._tick_event
        if stale is not None:
            stale.cancel()
        sim = self.sim
        self._tick_event = sim.rearm(fired, sim.now + ref_delay)

    def _schedule_tick_ref(self, ref_delay: float) -> None:
        """Create the tick event, replacing one that is still pending."""
        if self._tick_event is not None:
            self._tick_event.cancel()
        self._tick_event = self.sim.schedule(ref_delay, self._tick)

    def _frame_duration_ref(self, frame: Frame) -> float:
        """Reference-time duration to clock the frame onto the wire."""
        local = frame.size_bits / self.config.bit_rate
        return local / self.clock.rate

    # -- main tick ---------------------------------------------------------------------------

    def _tick(self) -> None:
        # The event running this tick: the successor tick re-arms it.
        fired = self._tick_event
        self._tick_event = None
        self.tick_count += 1
        mailbox = self._mailbox
        if mailbox:
            self._mailbox = []
        sim = self.sim
        self._slot_start_ref = sim.now  # the new slot starts now

        state = self.state
        if state is _FREEZE:
            return
        if state is _INIT:
            self._init_slots_left -= 1
            if self._init_slots_left <= 0:
                self._enter_listen()
            if self._faulty:
                self._maybe_inject_fault_traffic()
            self._schedule_tick(fired)
            return
        if state is _LISTEN:
            self._listen_tick(self._fold_mailbox(mailbox))
            if self._faulty:
                self._maybe_inject_fault_traffic()
            if self.state is not _FREEZE:
                self._schedule_tick(fired)
            return

        # cold_start / active / passive: slot-synchronous operation.
        self._judge_completed_slot(mailbox)
        if self.state is _FREEZE:
            return
        self._advance_slot()
        if self.slot == self.own_slot:
            if (self.config.clock_sync_enabled
                    and self.synchronizer.deviations):
                # Once-per-round resynchronization: a positive FTA value
                # means frames arrive later than our grid expects (our
                # clock runs fast), so the next round is stretched.
                measured = len(self.synchronizer.deviations)
                correction = self.synchronizer.compute_correction()
                self._sync_adjustment = correction
                if self.config.emit_sync_rounds:
                    self._emit(ev.SyncRound, correction=correction,
                               measurements=measured)
            if self._faulty:
                self._apply_byzantine_clock()
            self._own_slot_actions()
        if self._faulty:
            self._maybe_inject_fault_traffic()
        if self.state is not _FREEZE:
            # Inlined _schedule_tick(fired): nothing on the slot-synchronous
            # path creates a tick, so there is (almost) never a stale one.
            delay = self.config.slot_duration + self._sync_adjustment
            self._sync_adjustment = 0.0
            if delay < 1e-9:
                delay = 1e-9
            stale = self._tick_event
            if stale is not None:
                stale.cancel()
            self._tick_event = sim.rearm(fired, sim.now + delay / self.clock.rate)

    # -- listen ---------------------------------------------------------------------------------

    def _listen_tick(self, observations: Dict[int, FrameObservation]) -> None:
        obs0 = observations.get(0, SILENCE)
        obs1 = observations.get(1, SILENCE)
        kind0 = self._listen_kind(obs0)
        kind1 = self._listen_kind(obs1)
        decision = self.startup.observe_slot(kind0, kind1)

        if decision == "integrate_c_state":
            frame = self._explicit_cstate_frame(obs0, obs1)
            if frame is not None:
                id_on_bus = frame.cstate.medl_position
                new_slot = self.startup.integration_slot(id_on_bus)
                self._integrate(new_slot, frame.cstate.global_time + 1,
                                frame.cstate.membership, via="c_state")
                return
        if decision == "integrate_cold_start":
            frame = self._cold_start_frame(obs0, obs1)
            if frame is not None:
                new_slot = self.startup.integration_slot(frame.round_slot)
                members = frozenset({frame.round_slot})
                self._integrate(new_slot, frame.cstate.global_time + 1,
                                members, via="cold_start")
                return
        if decision == "cold_start":
            if (self._faulty
                    and self.config.fault is NodeFaultBehavior.MID_FRAME_JAMMER
                    and self._fault_active()):
                # The targeted jammer never starts a cluster of its own: it
                # stays parked in listen, observing traffic and jamming.
                return
            self._enter_cold_start()

    def _listen_receive(self, transmission: Transmission, corrupted: bool) -> None:
        """Event-driven listen-state reception.

        The same frame reaches us once per channel; the copies complete at
        the same instant and are deduplicated so the big-bang rule counts
        distinct cold-start *frames*, not channel replicas.  On
        integration, the local tick grid is re-anchored to the end of the
        observed slot (frame completion plus the residual slot time), which
        is how a real controller phase-locks onto the cluster's TDMA grid.
        """
        frame_id = id(transmission.frame)
        now = self.sim.now
        if frame_id == self._last_listen_frame and now == self._last_listen_time:
            return

        observation = self._make_observation(transmission, corrupted)
        kind = self._listen_kind(observation)
        if kind not in (FrameKind.C_STATE, FrameKind.COLD_START):
            # Not consumed: the replica on the other channel may still be
            # usable (e.g. only one coupler corrupts its copy).
            return
        self._last_listen_frame = frame_id
        self._last_listen_time = now
        decision = self.startup.observe_slot(kind, FrameKind.NONE)
        frame = observation.frame
        assert frame is not None

        # The adopted slot/time describe the slot *in progress* (the one the
        # frame was sent in); the tick at the slot boundary advances them to
        # the paper's ``slot' = id_on_bus + 1``.
        if decision == "integrate_c_state":
            adopted_slot = frame.cstate.medl_position
            self._integrate(adopted_slot, frame.cstate.global_time,
                            frame.cstate.membership, via="c_state")
        elif decision == "integrate_cold_start":
            assert isinstance(frame, ColdStartFrame)
            adopted_slot = frame.round_slot
            self._integrate(adopted_slot, frame.cstate.global_time,
                            frozenset({frame.round_slot}), via="cold_start")
        else:
            return

        # The integration frame itself is a correct frame from its sender:
        # credit it, and make sure the (already consumed) slot is not
        # re-judged as silence at the next tick.
        self.view.apply_judgment(adopted_slot, True, False)
        if frame.cstate.dmc_mode and self.modes.valid_mode(frame.cstate.dmc_mode - 1):
            self.pending_mode = frame.cstate.dmc_mode - 1
        self._judged_since_test += 1
        self._skip_next_judge = True

        # Phase-lock: the observed slot ends one slot after it started,
        # i.e. (slot_duration - frame airtime) after the frame completed.
        slot_ref = self.config.slot_duration / self.clock.rate
        residual = slot_ref - transmission.duration
        self._schedule_tick_ref(max(residual, 1e-9))

    def _listen_kind(self, observation: FrameObservation) -> FrameKind:
        if observation.is_null():
            return FrameKind.NONE
        if not observation.is_valid(self.tolerance.window, self.tolerance.threshold):
            return FrameKind.BAD_FRAME
        assert observation.frame is not None
        return observation.frame.kind

    def _explicit_cstate_frame(self, *observations: FrameObservation) -> Optional[Frame]:
        for observation in observations:
            if (observation.frame is not None
                    and self._listen_kind(observation) is FrameKind.C_STATE):
                return observation.frame
        return None

    def _cold_start_frame(self, *observations: FrameObservation) -> Optional[ColdStartFrame]:
        for observation in observations:
            if (observation.frame is not None
                    and self._listen_kind(observation) is FrameKind.COLD_START
                    and isinstance(observation.frame, ColdStartFrame)):
                return observation.frame
        return None

    # -- integrated operation -----------------------------------------------------------------

    def _judge_completed_slot(self, mailbox) -> None:
        """Judge the slot that just elapsed against our C-state.

        Operates directly on the raw mailbox entries of the two
        replicated channels: validity and C-state agreement are tested
        against the transmissions (and their signal shapes) in place.
        """
        if self._skip_next_judge:
            # The slot was consumed (and credited) by the integration path.
            self._skip_next_judge = False
            return
        state = self.state
        if self.slot == self.own_slot and (state is _ACTIVE
                                           or state is _COLD_START):
            # Own sending slot was already credited at send time.
            return
        config = self.config

        # One transmission (plus corruption flag) per channel; a second
        # transmission on the same channel is slot interference and makes
        # the channel's traffic invalid, like a corrupted copy.
        tx0 = tx1 = None
        bad0 = bad1 = False
        for entry in mailbox:
            if entry[0] == 0:
                if tx0 is None:
                    tx0 = entry[1]
                    bad0 = entry[2]
                else:
                    bad0 = True
            elif tx1 is None:
                tx1 = entry[1]
                bad1 = entry[2]
            else:
                bad1 = True

        global_time = self._global_time
        position = self._position
        tolerance = self.tolerance
        window = tolerance.window
        threshold = tolerance.threshold
        # TTP/C membership check: the sender includes itself at its
        # membership point, so a correct frame carries our view with the
        # sender's bit set -- compared as wire words, O(1) in N.
        expected_word = (self.view.word | (1 << position)
                         if config.strict_membership_agreement else None)

        # FrameObservation.is_valid plus the correctness test per channel.
        valid0 = valid1 = correct0 = correct1 = False
        frame0 = frame1 = None
        if tx0 is not None:
            frame0 = tx0.frame
            shape = tx0.shape
            if (not bad0 and shape.level >= threshold
                    and -window <= shape.timing_offset <= window):
                valid0 = True
                frame_cstate = frame0.cstate
                if (frame_cstate.global_time == global_time
                        and frame_cstate.medl_position == position):
                    correct0 = (expected_word is None or
                                frame_cstate.membership_word() == expected_word)
        if tx1 is tx0 and bad1 == bad0:
            # The star forwarded one transmission on both channels: the
            # replica's verdict is channel 0's.
            frame1 = frame0
            valid1 = valid0
            correct1 = correct0
        elif tx1 is not None:
            frame1 = tx1.frame
            shape = tx1.shape
            if (not bad1 and shape.level >= threshold
                    and -window <= shape.timing_offset <= window):
                valid1 = True
                frame_cstate = frame1.cstate
                if (frame_cstate.global_time == global_time
                        and frame_cstate.medl_position == position):
                    correct1 = (expected_word is None or
                                frame_cstate.membership_word() == expected_word)

        any_correct = correct0 or correct1
        if any_correct:
            # Application data and a deferred mode change both come from
            # the first correct frame (the channels are replicas).
            good = frame0 if correct0 else frame1
            if isinstance(good, XFrame) and good.data_bits:
                self.cni.deliver(self.slot, good.data_bits, global_time)
            wire_value = good.cstate.dmc_mode
            if wire_value:
                requested = wire_value - 1
                if self.modes.valid_mode(requested):
                    if requested != self.pending_mode:
                        self.pending_mode = requested
                        self._emit(ev.DmcLatched, mode=requested)
                    # Heard from the bus: it is circulating.
                    self._dmc_announced = True
        if config.explicit_acknowledgment and self.ack.armed:
            # Explicit acknowledgment: the first valid frame whose
            # time/position agree with ours witnesses the pending send.
            ack_frame = None
            if valid0:
                frame_cstate = frame0.cstate
                if (frame_cstate.global_time == global_time
                        and frame_cstate.medl_position == position):
                    ack_frame = frame0
            if ack_frame is None and valid1:
                frame_cstate = frame1.cstate
                if (frame_cstate.global_time == global_time
                        and frame_cstate.medl_position == position):
                    ack_frame = frame1
            if ack_frame is not None:
                outcome = self.ack.observe_successor(ack_frame.cstate.membership)
                if outcome is AckOutcome.SEND_FAULT:
                    self._emit(ev.AckFailure, slot=self.slot)
                    self._freeze(FreezeReason.ACK_FAILURE)
                    return

        all_null = tx0 is None and tx1 is None
        self.view.apply_judgment(self.slot, any_correct, all_null)
        if not all_null:
            self._judged_since_test += 1
            if not any_correct:
                # Diagnostic detail for campaign forensics: what we
                # expected vs what the (first) frame claimed.
                frame = frame0 if frame0 is not None else frame1
                self._emit(
                    ev.SlotFailed, slot=self.slot,
                    expected_time=global_time,
                    expected_pos=position,
                    frame_time=None if frame is None else frame.cstate.global_time,
                    frame_pos=None if frame is None else frame.cstate.medl_position,
                    frame_members=None if frame is None
                    else sorted(frame.cstate.membership),
                    my_members=sorted(self.view.membership_set()))

    def _advance_slot(self) -> None:
        slot_count = self._slot_count
        slot = self.slot + 1
        if slot > slot_count:
            slot = 1
        self.slot = slot
        position = self._position + 1
        if position > slot_count:
            position = 1
        # The cluster switches modes together at the round boundary --
        # but only once the request has been on the bus (everyone heard
        # the same broadcast, so everyone switches at the same boundary).
        if slot == 1 and self.pending_mode is not None and self._dmc_announced:
            self.current_mode = self.pending_mode
            self.pending_mode = None
            self._dmc_announced = False
            self._install_mode(self.current_mode)
            self._emit(ev.ModeChange, mode=self.current_mode)
        # One slot elapsed; membership snapshot and pending DMC travel in
        # the C-state, kept as ints until someone reads ``cstate``.
        pending = self.pending_mode
        self._global_time = (self._global_time + 1) % (1 << 16)
        self._position = position
        self._member_word = self.view.word
        self._dmc = 0 if pending is None else pending + 1
        self._cstate = None

    def _own_slot_actions(self) -> None:
        """Once-per-round actions at the node's own slot."""
        if self.state is ControllerStateName.COLD_START:
            verdict = clique_avoidance_test(self.view.counters, integrated=False)
            self.view.reset_round()
            self._judged_since_test = 0
            self._emit(ev.CliqueTest, verdict=verdict.value)
            if verdict is CliqueVerdict.RESEND_COLD_START:
                self._send_cold_start()
            elif verdict is CliqueVerdict.MAJORITY:
                self._become_active()
            else:
                self._enter_listen()
            return

        if self.state is ControllerStateName.PASSIVE:
            if self._judged_since_test == 0:
                # Nothing observed yet; stay passive one more round rather
                # than deciding on an empty sample.
                if self.view.counters.total == 0:
                    self._become_active()
                return
            verdict = clique_avoidance_test(self.view.counters, integrated=True)
            self.view.reset_round()
            self._judged_since_test = 0
            self._emit(ev.CliqueTest, verdict=verdict.value)
            if verdict is CliqueVerdict.MINORITY_FREEZE:
                self._freeze(FreezeReason.CLIQUE_ERROR)
                return
            self._become_active()
            return

        if self.state is ControllerStateName.ACTIVE:
            if self._judged_since_test > 0:
                verdict = clique_avoidance_test(self.view.counters, integrated=True)
                self._emit(ev.CliqueTest, verdict=verdict.value)
                if verdict is CliqueVerdict.MINORITY_FREEZE:
                    self._freeze(FreezeReason.CLIQUE_ERROR)
                    return
            self.view.reset_round()
            self._judged_since_test = 0
            self._send_scheduled_frame()

    def _become_active(self) -> None:
        """Acquire sending rights at the start of the own slot."""
        self.state = ControllerStateName.ACTIVE
        self.ever_integrated = True
        self.view.reset_round()
        self._judged_since_test = 0
        self._emit(ev.StateChange, state=self.state.value)
        round_start = self.sim.now - self.medl.slot_start_offset(self.own_slot)
        self._emit(ev.Activated, round_start=round_start)
        # The latest grid joined (a reintegrated node may have switched).
        self.round_anchor = round_start
        # (Re-)announce on every activation so the node's local guardians
        # track its *current* grid -- a reintegrated node may have joined a
        # different grid than the one it first activated on.
        announce = getattr(self.topology, "node_activated", None)
        if announce is not None:
            announce(self.name, round_start)
        self._send_scheduled_frame()

    # -- sending ------------------------------------------------------------------------------

    def _send_cold_start(self) -> None:
        frame = ColdStartFrame(sender_slot=self.own_slot, cstate=self.cstate)
        self._transmit(frame)
        self.view.record_own_send()
        if self.config.explicit_acknowledgment:
            self.ack.arm()

    def _send_scheduled_frame(self) -> None:
        descriptor = self._own_descriptor
        # Membership point: the sender includes itself before transmitting,
        # and the sent C-state carries the up-to-date membership view and
        # any pending deferred mode change.
        pending = self.pending_mode
        mcr = 0 if pending is None else pending + 1
        view = self.view
        view.record_own_send()
        self.cstate = CState._unchecked(
            self._global_time, self._position,
            view.membership_set(), mcr, view.word)
        cstate = self._sending_cstate()
        payload = self.cni.outgoing_payload()
        if payload is not None:
            frame: Frame = XFrame(sender_slot=self.own_slot, cstate=cstate,
                                  data_bits=payload, mode_change_request=mcr)
        elif descriptor.explicit_cstate:
            frame = IFrame(sender_slot=self.own_slot, cstate=cstate,
                           mode_change_request=mcr)
        else:
            frame = NFrame(sender_slot=self.own_slot, cstate=cstate,
                           mode_change_request=mcr)
        self._transmit(frame)
        if self.pending_mode is not None:
            self._dmc_announced = True
        if self.config.explicit_acknowledgment:
            self.ack.arm()

    def _fault_active(self) -> bool:
        return (self.config.fault is not NodeFaultBehavior.HEALTHY
                and self.sim.now >= self.config.fault_start_time)

    def _sending_cstate(self) -> CState:
        if (self.config.fault is NodeFaultBehavior.INVALID_C_STATE
                and self._fault_active()):
            corrupted_time = ((self.cstate.global_time + self.config.cstate_corruption)
                              % (1 << 16))
            return CState(global_time=corrupted_time,
                          medl_position=self.cstate.medl_position,
                          membership=self.cstate.membership)
        return self.cstate

    def _signal_shape(self) -> SignalShape:
        if (self.config.fault is NodeFaultBehavior.SOS_SIGNAL
                and self._fault_active()):
            return SignalShape(level=self.config.sos_level,
                               timing_offset=self.config.sos_offset)
        return NOMINAL_SHAPE

    def _transmit(self, frame: Frame) -> None:
        airtime_local = frame.size_bits / self.config.bit_rate
        if airtime_local >= self.config.slot_duration:
            raise ValueError(
                f"{frame.size_bits}-bit frame needs {airtime_local:g} local time"
                f" units but the slot is {self.config.slot_duration:g}: enlarge"
                " the MEDL slot duration or shrink the payload")
        duration = self._frame_duration_ref(frame)
        self._emit(ev.FrameSent, frame_kind=frame.kind_value, slot=self.slot)
        if (self._faulty
                and self.config.fault is NodeFaultBehavior.BYZANTINE_CLOCK
                and self.config.byzantine_mode == "two_faced"
                and self._fault_active()):
            self._transmit_two_faced(frame, duration)
            return
        self.topology.send(self.name, frame, duration, self._signal_shape())

    def _transmit_two_faced(self, frame: Frame, duration: float) -> None:
        """Two-faced Byzantine send: stagger the per-channel copies.

        Both skews point the *same* way (``magnitude`` and ``2 *
        magnitude`` late), so every receiver collects two same-direction
        outlier measurements from this one node -- double voting that a
        ``discard=1`` FTA cannot fully reject (opposite-sign faces would
        both be discarded and are harmless).
        """
        magnitude_ref = self.config.byzantine_magnitude / self.clock.rate
        skews = [(index + 1) * magnitude_ref
                 for index in range(len(self.topology.channels))]
        self._emit(ev.ByzantineTick, mode="two_faced",
                   offset=self.config.byzantine_magnitude)
        self.topology.send_skewed(self.name, frame, duration,
                                  self._signal_shape(), skews)

    # -- node fault traffic -------------------------------------------------------------------

    def _maybe_inject_fault_traffic(self) -> None:
        if self.config.fault is NodeFaultBehavior.BABBLING_IDIOT:
            # The babbler integrates normally and then floods every slot --
            # the classic failure the (local or central) guardians exist to
            # contain with their transmit windows.
            if self.state is ControllerStateName.ACTIVE and self.slot != self.own_slot:
                frame = NFrame(sender_slot=self.own_slot, cstate=self.cstate)
                self._transmit(frame)
        elif self.config.fault is NodeFaultBehavior.MASQUERADE_COLD_START:
            if (self.state is ControllerStateName.LISTEN
                    and self.tick_count == self.config.masquerade_tick):
                bogus = ColdStartFrame(
                    sender_slot=self.config.masquerade_as,
                    cstate=CState(global_time=self.cstate.global_time,
                                  medl_position=self.config.masquerade_as))
                duration = self._frame_duration_ref(bogus)
                self.topology.send(self.name, bogus, duration, self._signal_shape())
        elif self.config.fault is NodeFaultBehavior.COLLIDING_SENDER:
            # The blind collision attacker fires on its own tick grid from
            # the pre-integration states.  Its grid is phase-incoherent
            # with the cluster's, so jams land mid-frame somewhere in
            # (almost) every round; its own cold-start attempts collide
            # with its jams, which keeps it cycling listen <-> cold start.
            if (self.state in (_LISTEN, _COLD_START)
                    and self._fault_active()):
                self._send_jam(targeted=False)

    def _collision_attack_active(self) -> bool:
        fault = self.config.fault
        return ((fault is NodeFaultBehavior.COLLIDING_SENDER
                 or fault is NodeFaultBehavior.MID_FRAME_JAMMER)
                and self._fault_active())

    def _maybe_arm_targeted_jam(self, transmission: Transmission) -> None:
        """Mid-frame jammer: aim a jam ``jam_offset`` into the next slot.

        Each completed frame reveals where the victims' slot boundaries
        are (the frame completes ``slot_duration - airtime`` before the
        next boundary); the jam is scheduled to start ``jam_offset`` after
        that boundary, overlapping the next frame mid-transmission.
        """
        if self.config.fault is not NodeFaultBehavior.MID_FRAME_JAMMER:
            return
        key = (id(transmission.frame), self.sim.now)
        if key == self._last_jam_key:
            return  # second-channel replica of the frame just observed
        self._last_jam_key = key
        rate = self.clock.rate
        residual = self.config.slot_duration / rate - transmission.duration
        delay = max(residual, 0.0) + self.config.jam_offset / rate
        self.sim.schedule(delay, self._fire_targeted_jam)

    def _fire_targeted_jam(self) -> None:
        if self.state is _LISTEN and self._fault_active():
            self._send_jam(targeted=True)

    def _send_jam(self, targeted: bool) -> None:
        """Drive a deliberately colliding frame (bypasses ``_transmit`` so
        no ``send`` event is forged for scheduled traffic)."""
        frame = NFrame(sender_slot=self.own_slot, cstate=self.cstate)
        self._emit(ev.CollisionJam, targeted=targeted)
        duration = self._frame_duration_ref(frame)
        self.topology.send(self.name, frame, duration, self._signal_shape())

    def _apply_byzantine_clock(self) -> None:
        """Override the honest resync with the Byzantine deviation pattern.

        The rush/drag/oscillate patterns hold an *absolute* grid offset
        (the applied correction is the delta between consecutive targets),
        keeping the node inside the receivers' precision window where its
        frames still poison the FTA.  Two-faced nodes keep an honest grid;
        their attack lives in the per-channel send skews.
        """
        config = self.config
        if (config.fault is not NodeFaultBehavior.BYZANTINE_CLOCK
                or not self._fault_active()):
            return
        mode = config.byzantine_mode
        if mode == "two_faced":
            return
        from repro.ttp.clock_sync import byzantine_offset

        self._byz_round += 1
        target = byzantine_offset(mode, config.byzantine_magnitude,
                                  self._byz_round)
        # A Byzantine clock does not follow the ensemble: drop the honest
        # FTA correction (and any collected measurements) and steer the
        # grid to the target offset instead.
        self.synchronizer.reset()
        self._sync_adjustment = target - self._byz_offset
        self._byz_offset = target
        self._emit(ev.ByzantineTick, mode=mode, offset=target)

    # -- bookkeeping ----------------------------------------------------------------------------

    def _emit(self, event_cls, **details) -> None:
        monitor = self.monitor
        if monitor is not None:
            monitor.emit(ev.fill_event(event_cls, self.sim.now,
                                       self._source, details))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"TTPController({self.name!r}, {self.state.value}, "
                f"slot={self.slot})")
