"""Central star couplers (central bus guardians).

A :class:`StarCoupler` sits between every node's uplink and one broadcast
channel.  Its behaviour is parameterized by a
:class:`repro.core.authority.CouplerAuthority` level:

* ``PASSIVE`` -- a dumb hub: everything on an uplink appears on the channel,
* ``TIME_WINDOWS`` -- forwards a node's transmission only during that
  node's MEDL slot (once the coupler is synchronized),
* ``SMALL_SHIFTING`` -- additionally reshapes the signal (value + small
  time adjustments) and performs semantic analysis (cold-start sender
  verification, C-state checks), which requires buffering ``B_min`` bits,
* ``FULL_SHIFTING`` -- additionally can buffer entire frames, enabling the
  *out-of-slot* replay fault the paper analyzes.

The module also contains :class:`ForwardingBuffer`, the "leaky bucket"
bit-buffer model behind paper eq. (1): a coupler whose clock rate differs
from the sender's must buffer ``le + delta_rho * f`` bits to forward a
frame of ``f`` bits without underrun or overrun.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import List, Optional

from repro.core.authority import CouplerAuthority, features_of
from repro.network.channel import Channel, Transmission
from repro.network.signal import NOMINAL_LEVEL, NOMINAL_OFFSET, reshape
from repro.obs import events as obs_events
from repro.sim.engine import Simulator
from repro.sim.monitor import TraceMonitor
from repro.ttp.constants import LINE_ENCODING_BITS
from repro.ttp.frames import ColdStartFrame
from repro.ttp.medl import Medl


class CouplerFault(enum.Enum):
    """Star-coupler fault modes from the paper's model (Section 4.4)."""

    NONE = "none"
    #: Replaces any frame on the coupler's channel with silence.
    SILENCE = "silence"
    #: Places a bad frame / noise on the bus, whether or not a frame was sent.
    BAD_FRAME = "bad_frame"
    #: Re-sends the last frame received by the coupler in a later slot.
    #: Physically possible only for a full-shifting coupler.
    OUT_OF_SLOT = "out_of_slot"


@dataclass(frozen=True)
class ForwardingEvent:
    """One point of the piecewise-linear buffer occupancy curve."""

    time: float
    occupancy_bits: float


@dataclass
class ForwardingResult:
    """Outcome of forwarding one frame through the coupler buffer."""

    frame_bits: int
    start_delay: float
    peak_occupancy_bits: float
    underrun: bool
    curve: List[ForwardingEvent] = field(default_factory=list)


class ForwardingBuffer:
    """Leaky-bucket bit buffer between an uplink and a downlink.

    The input side clocks bits in at ``in_rate`` (the sender's actual bit
    rate) and the output side clocks bits out at ``out_rate`` (the
    coupler's actual bit rate).  Forwarding may only begin after
    ``line_encoding_bits`` have been buffered (the decoder needs them), and
    must never underrun (run out of bits mid-frame).

    ``capacity_bits`` is the hard buffer limit; exceeding it is an overrun,
    which the analysis (and the dependability argument of the paper) says
    must never be allowed to reach a whole minimum-size frame.
    """

    def __init__(self, in_rate: float, out_rate: float,
                 line_encoding_bits: int = LINE_ENCODING_BITS,
                 capacity_bits: Optional[float] = None) -> None:
        if in_rate <= 0 or out_rate <= 0:
            raise ValueError("bit rates must be positive")
        self.in_rate = in_rate
        self.out_rate = out_rate
        self.line_encoding_bits = line_encoding_bits
        self.capacity_bits = capacity_bits

    def required_start_delay(self, frame_bits: int) -> float:
        """Earliest forwarding start (after the first input bit) that
        avoids decoder starvation.

        The line decoder needs ``le`` bits of lookahead *throughout* the
        reception (not just at the start), so the buffer must hold at
        least ``le`` bits until the input ends -- this is what makes the
        paper's bound additive (eq. 1: ``B_min = le + delta_rho * f``).
        With a faster output clock the coupler must wait long enough that
        the output cannot drain the lookahead before the input finishes:
        ``in*t - out*(t - t0) >= le`` at ``t = f/in``.
        """
        decode_delay = self.line_encoding_bits / self.in_rate
        if self.out_rate <= self.in_rate:
            return decode_delay
        # Lookahead preserved until input end: t0 >= le/out + f(1/in - 1/out).
        starvation_delay = (self.line_encoding_bits / self.out_rate
                            + frame_bits * (1.0 / self.in_rate - 1.0 / self.out_rate))
        return max(decode_delay, starvation_delay)

    def required_buffer_bits(self, frame_bits: int) -> float:
        """Closed-form peak occupancy when forwarding starts as early as
        allowed -- the dynamic counterpart of paper eq. (1)."""
        result = self.simulate(frame_bits)
        return result.peak_occupancy_bits

    def simulate(self, frame_bits: int,
                 start_delay: Optional[float] = None) -> ForwardingResult:
        """Trace the buffer occupancy while one frame is forwarded.

        Occupancy is piecewise linear with breakpoints only at the
        forwarding start, the input end, and the output end, so the curve
        is computed exactly from those events.
        """
        if frame_bits <= 0:
            raise ValueError(f"frame_bits must be positive, got {frame_bits}")
        if start_delay is None:
            start_delay = self.required_start_delay(frame_bits)
        input_end = frame_bits / self.in_rate
        output_end = start_delay + frame_bits / self.out_rate

        def bits_in(time: float) -> float:
            return min(frame_bits, max(0.0, time) * self.in_rate)

        def bits_out(time: float) -> float:
            return min(frame_bits, max(0.0, time - start_delay) * self.out_rate)

        breakpoints = sorted({0.0, start_delay, input_end, output_end})
        curve = []
        peak = 0.0
        underrun = False
        for time in breakpoints:
            occupancy = bits_in(time) - bits_out(time)
            if occupancy < -1e-9:
                underrun = True
            if (time <= input_end + 1e-12 and time >= start_delay - 1e-12
                    and occupancy < self.line_encoding_bits - 1e-9):
                # Decoder starvation: lookahead lost while still receiving.
                underrun = True
            peak = max(peak, occupancy)
            curve.append(ForwardingEvent(time=time, occupancy_bits=occupancy))
        return ForwardingResult(frame_bits=frame_bits, start_delay=start_delay,
                                peak_occupancy_bits=peak, underrun=underrun,
                                curve=curve)

    def overruns(self, frame_bits: int) -> bool:
        """Whether forwarding this frame would exceed the buffer capacity."""
        if self.capacity_bits is None:
            return False
        return self.required_buffer_bits(frame_bits) > self.capacity_bits + 1e-9


@dataclass
class CouplerStats:
    """Counters for experiment reporting."""

    forwarded: int = 0
    blocked_out_of_window: int = 0
    blocked_semantic: int = 0
    reshaped: int = 0
    replayed: int = 0
    silenced: int = 0
    corrupted: int = 0


class StarCoupler:
    """An active star coupler / central bus guardian for one channel."""

    def __init__(self, sim: Simulator, name: str, authority: CouplerAuthority,
                 medl: Medl, channel: Channel,
                 monitor: Optional[TraceMonitor] = None,
                 fault: CouplerFault = CouplerFault.NONE,
                 max_small_shift: float = 2.0,
                 replay_delay: Optional[float] = None,
                 replay_limit: Optional[int] = None) -> None:
        features = features_of(authority)
        if fault is CouplerFault.OUT_OF_SLOT and not features.may_exhibit_out_of_slot_fault:
            raise ValueError(
                f"out-of-slot fault is impossible at authority {authority.value!r}: "
                "the coupler cannot store whole frames")
        self.sim = sim
        self.name = name
        self.authority = authority
        self.features = features
        self.medl = medl
        self._source = f"coupler:{name}"
        self._dispatch = medl.dispatch()
        #: MEDL geometry resolved once for the per-transmission checks
        #: (``slot_count`` is a property; ``slot(1)`` a lookup per call).
        self._slot_count = medl.slot_count
        self._slot_duration = medl.slot(1).duration
        self.channel = channel
        self.monitor = monitor
        self.fault = fault
        self.max_small_shift = max_small_shift
        #: Delay before a stored frame is replayed (defaults to one slot).
        self.replay_delay = (replay_delay if replay_delay is not None
                             else medl.slot(1).duration)
        #: Maximum number of out-of-slot replays (None = unlimited); the
        #: paper's trace analysis limits this budget to one error.
        self.replay_limit = replay_limit
        self.stats = CouplerStats()
        #: Slot-grid anchor: once set, the coupler enforces time windows.
        self._sync_anchor: Optional[float] = None
        #: (slot-start ref time, global time) from the last verified
        #: cold-start frame; basis of the semantic C-state check.
        self._time_anchor: Optional[tuple] = None
        #: Last whole frame stored (full-shifting only).
        self._buffered: Optional[Transmission] = None
        self._replay_pending = False

    # -- synchronization ---------------------------------------------------------

    def synchronize(self, round_start_ref_time: float) -> None:
        """Anchor the coupler's slot schedule to the cluster round."""
        self._sync_anchor = round_start_ref_time

    @property
    def synchronized(self) -> bool:
        return self._sync_anchor is not None

    def current_slot(self, ref_time: float) -> Optional[int]:
        """Slot the coupler believes is open, or ``None`` before sync."""
        if self._sync_anchor is None:
            return None
        dispatch = self._dispatch
        phase = (ref_time - self._sync_anchor) % dispatch.round_duration
        # Phases within 1e-9 below a slot boundary resolve to the next
        # slot (float dust from summed reference times).
        return dispatch.slot_at_phase(phase + 1e-9)

    # -- uplink handling ------------------------------------------------------------

    def receive_uplink(self, transmission: Transmission) -> None:
        """A node drives its uplink; decide what reaches the channel."""
        fault = self.fault
        features = self.features
        # Fault behaviour first: a silent coupler forwards nothing at all.
        if fault is CouplerFault.SILENCE:
            self.stats.silenced += 1
            self._emit(obs_events.UplinkSilenced, sender=transmission.source)
            return

        decision = self._policy_decision(transmission)
        if decision is not None:
            if decision == "block_window":
                self.stats.blocked_out_of_window += 1
                self._emit(obs_events.BlockedOutOfWindow,
                           sender=transmission.source)
            else:
                self.stats.blocked_semantic += 1
                self._emit(obs_events.BlockedSemantic,
                           sender=transmission.source)
            return

        # A verified cold-start frame (port check passed) is trustworthy:
        # a semantic-analysis coupler anchors its slot grid and global time
        # on it, the basis of its window and C-state enforcement.
        if (features.semantic_analysis
                and isinstance(transmission.frame, ColdStartFrame)):
            self._anchor_from_cold_start(transmission.frame)

        outgoing = transmission
        shape = transmission.shape
        if (features.reshapes_signal
                and (shape.level != NOMINAL_LEVEL
                     or shape.timing_offset != NOMINAL_OFFSET)):
            # A nominal shape reshapes to itself; only off-nominal frames
            # pay for the reshape.
            reshaped_shape = reshape(shape, boost_value=True,
                                     realign_time=self.features.can_shift_small,
                                     max_time_shift=self.max_small_shift)
            if reshaped_shape != shape:
                self.stats.reshaped += 1
                outgoing = replace(transmission, shape=reshaped_shape)

        # Store-and-replay capability (and its abuse under the fault).
        if self.features.can_shift_full:
            self._buffered = outgoing
            self._emit(obs_events.BufferOccupancy, sender=outgoing.source,
                       bits=outgoing.frame.size_bits)
            if self.fault is CouplerFault.OUT_OF_SLOT and not self._replay_pending:
                self._schedule_replay()

        if self.fault is CouplerFault.BAD_FRAME:
            self.stats.corrupted += 1
            outgoing = replace(outgoing,
                               shape=replace(outgoing.shape, level=0.0))

        self.stats.forwarded += 1
        self._forward(outgoing)

    def _policy_decision(self, transmission: Transmission) -> Optional[str]:
        """Apply the authority level's filtering rules.

        Returns ``"block_window"`` / ``"block_semantic"``, or ``None`` for
        a frame allowed through (the overwhelmingly common case pays no
        string comparison).
        """
        if self.features.semantic_analysis:
            frame = transmission.frame
            if isinstance(frame, ColdStartFrame):
                # Semantic analysis: the claimed round-slot must match the
                # physical uplink port (stops startup masquerading).
                try:
                    port_slot = self.medl.slot_of(transmission.source)
                except KeyError:
                    return "block_semantic"
                if frame.round_slot != port_slot:
                    return "block_semantic"
            elif frame.carries_explicit_cstate() and self._time_anchor is not None:
                # Semantic analysis of the C-state: a frame whose claimed
                # position or global time disagrees with the coupler's own
                # expectation never reaches the bus, so integrating nodes
                # cannot adopt an invalid C-state (paper Section 2.2).
                expected_time, expected_slot = self._expected_cstate()
                if (frame.cstate.medl_position != expected_slot
                        or frame.cstate.global_time != expected_time):
                    return "block_semantic"
        if self.features.can_block and self._sync_anchor is not None:
            dispatch = self._dispatch
            phase = (self.sim.now - self._sync_anchor) % dispatch.round_duration
            open_slot = dispatch.slot_at_phase(phase + 1e-9)
            sender_slot = dispatch.slot_by_sender.get(transmission.source)
            if sender_slot is None:
                return "block_window"
            if open_slot != sender_slot:
                if (self.features.can_shift_small
                        and self._within_shift_budget(sender_slot,
                                                      transmission.duration)):
                    # A small-shifting coupler nudges a marginal frame back
                    # into its own window rather than dropping it -- but
                    # only when a shift of at most the budget makes the
                    # whole frame fit inside that window.
                    return None
                return "block_window"
        return None

    def _within_shift_budget(self, sender_slot: int,
                             frame_duration: float) -> bool:
        """Whether shifting the frame by at most the small-shift budget
        makes it fit entirely inside the sender's own window."""
        if self._sync_anchor is None:
            return False
        round_duration = self.medl.round_duration()
        phase = (self.sim.now - self._sync_anchor) % round_duration
        window_start = self.medl.slot_start_offset(sender_slot)
        window_end = window_start + self.medl.slot(sender_slot).duration
        latest_start = window_end - frame_duration
        if latest_start < window_start:
            return False  # frame longer than the slot: nothing fits
        # Circular distance from the phase to the feasible start interval.
        if window_start <= phase <= latest_start:
            return True
        forward = (window_start - phase) % round_duration
        backward = (phase - latest_start) % round_duration
        return min(forward, backward) <= self.max_small_shift

    def _anchor_from_cold_start(self, frame: ColdStartFrame) -> None:
        """Adopt the grid and global time claimed by a verified cold-start
        frame (its uplink begins exactly at the claimed slot's start)."""
        slot_start = self.sim.now
        round_start = slot_start - self.medl.slot_start_offset(frame.round_slot)
        self.synchronize(round_start)
        self._time_anchor = (slot_start, frame.cstate.global_time,
                             frame.round_slot)

    def _expected_cstate(self) -> tuple:
        """(global time, slot) the coupler expects right now.

        Global time advances one tick per slot from the anchored
        cold-start frame; assumes the uniform-slot schedules used by the
        cluster simulations.  The slot index is derived from the *nearest*
        slot boundary (not a hard floor), so a legitimate sender whose
        resynchronized clock is a fraction of a bit ahead of the coupler's
        is not misjudged at the boundary.
        """
        anchor_ref, anchor_time, anchor_slot = self._time_anchor
        slots_elapsed = int(round((self.sim.now - anchor_ref)
                                  / self._slot_duration))
        expected_time = (anchor_time + slots_elapsed) % (1 << 16)
        expected_slot = ((anchor_slot - 1 + slots_elapsed)
                        % self._slot_count) + 1
        return expected_time, expected_slot

    def _schedule_replay(self) -> None:
        self._replay_pending = True
        self.sim.schedule(self.replay_delay, self._replay)

    def _replay(self) -> None:
        """The out-of-slot fault: emit the stored frame in a later slot."""
        self._replay_pending = False
        if self._buffered is None:
            return
        if self.replay_limit is not None and self.stats.replayed >= self.replay_limit:
            return
        original = self._buffered
        self.stats.replayed += 1
        self._emit(obs_events.OutOfSlotReplay, sender=original.source,
                   frame_kind=original.frame.kind_value)
        replayed = replace(original, start_time=self.sim.now)
        self.channel.transmit(replayed)

    def _forward(self, transmission: Transmission) -> None:
        if transmission.start_time != self.sim.now:
            transmission = replace(transmission, start_time=self.sim.now)
        self.channel.transmit(transmission)

    def _emit(self, event_cls, **details) -> None:
        monitor = self.monitor
        if monitor is not None:
            monitor.emit(obs_events.fill_event(event_cls, self.sim.now,
                                               self._source, details))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"StarCoupler({self.name!r}, {self.authority.value}, "
                f"fault={self.fault.value})")
