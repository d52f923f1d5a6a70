"""TTP/C frame types and their wire sizes.

Four concrete frame types are modeled, matching the paper's usage:

* :class:`NFrame` -- minimal frame, no application data, *implicit* C-state
  (the CRC is seeded with the sender's C-state digest), 28 bits,
* :class:`IFrame` -- explicit C-state, no application data, 76 bits,
* :class:`XFrame` -- explicit C-state plus application data, up to
  2076 bits,
* :class:`ColdStartFrame` -- startup frame carrying global time and the
  sender's round-slot position.

Frames travel as objects: the simulator needs only their wire size (for
airtime) and their C-state, which receivers compare with their own.
A frame on the wire is observed as a :class:`FrameObservation`, which adds
channel-level attributes (timing offset, signal level, corruption) and
implements the paper's *valid* / *null* classification from the
receiver's point of view.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.ttp.constants import (
    COLD_START_FRAME_BITS,
    CRC_BITS,
    GLOBAL_TIME_BITS,
    HEADER_BITS,
    MEDL_POSITION_BITS,
    MEMBERSHIP_BITS,
    N_FRAME_BITS,
    X_CRC_PAD_BITS,
    X_CSTATE_BITS,
    X_DATA_BITS,
    FrameKind,
)
from repro.ttp.cstate import CState


def membership_field_bits_for(slot_count: int) -> int:
    """Width of the membership wire field for an N-slot schedule.

    Membership bits are indexed by 1-based slot id (bit 0 reserved), so the
    field must cover bit ``slot_count``; schedules whose highest slot id
    stays below :data:`MEMBERSHIP_BITS` keep the paper's exact 16-bit field,
    larger ones pad to the next 16-bit multiple.
    """
    if slot_count < MEMBERSHIP_BITS:
        return MEMBERSHIP_BITS
    return -(-(slot_count + 1) // MEMBERSHIP_BITS) * MEMBERSHIP_BITS


def i_frame_wire_bits(slot_count: int) -> int:
    """On-wire size of the I-frame an N-slot cluster exchanges."""
    return (HEADER_BITS + GLOBAL_TIME_BITS + MEDL_POSITION_BITS
            + membership_field_bits_for(slot_count) + CRC_BITS)


@dataclass(frozen=True)
class Frame:
    """Common frame attributes.

    ``sender_slot`` is the sender's TDMA slot id (1-based).  It is not an
    explicit wire field for regular frames -- receivers infer the sender from
    the slot time -- but the simulator carries it for bookkeeping and for the
    masquerading analysis (where the inferred and actual sender diverge).
    """

    sender_slot: int
    cstate: CState = field(default_factory=CState)

    #: ``kind.value`` precomputed per class: the event emitters tag every
    #: transmission with the frame-kind string, and going through the
    #: property plus the enum's ``value`` descriptor costs two dynamic
    #: lookups per emit on the hot path.
    kind_value = ""

    @property
    def kind(self) -> FrameKind:
        raise NotImplementedError

    @property
    def size_bits(self) -> int:
        raise NotImplementedError

    def carries_explicit_cstate(self) -> bool:
        """Whether a listening (not yet integrated) node can read the
        C-state directly out of the frame."""
        return False


@dataclass(frozen=True)
class NFrame(Frame):
    """Minimal frame: header + CRC, with implicit C-state protection.

    The receiver can only validate the CRC if it holds the same C-state as
    the sender, so an N-frame is *correct* exactly when C-states agree --
    but carries no C-state a listening node could adopt.
    """

    mode_change_request: int = 0

    kind_value = FrameKind.OTHER.value

    @property
    def kind(self) -> FrameKind:
        return FrameKind.OTHER

    @property
    def size_bits(self) -> int:
        return N_FRAME_BITS


@dataclass(frozen=True)
class IFrame(Frame):
    """Explicit C-state frame used for integration and re-integration."""

    mode_change_request: int = 0

    kind_value = FrameKind.C_STATE.value

    @property
    def kind(self) -> FrameKind:
        return FrameKind.C_STATE

    @property
    def size_bits(self) -> int:
        # The paper's 76-bit I-frame whenever the membership fits the
        # 16-bit field; memberships referencing higher slots widen the
        # frame by the same padding the C-state encoding uses, so airtime
        # and wire length agree.
        return (HEADER_BITS + GLOBAL_TIME_BITS + MEDL_POSITION_BITS
                + self.cstate.membership_field_bits() + CRC_BITS)

    def carries_explicit_cstate(self) -> bool:
        return True


@dataclass(frozen=True)
class XFrame(Frame):
    """Frame with both explicit C-state and application data.

    The maximum-size X-frame (1920 data bits) is the 2076-bit frame of
    paper eq. (9).
    """

    mode_change_request: int = 0
    data_bits: tuple = ()

    def __post_init__(self) -> None:
        if len(self.data_bits) > X_DATA_BITS:
            raise ValueError(
                f"X-frame data limited to {X_DATA_BITS} bits, got {len(self.data_bits)}")
        if any(bit not in (0, 1) for bit in self.data_bits):
            raise ValueError("data_bits must contain only 0/1")
        cstate_bits = (GLOBAL_TIME_BITS + MEDL_POSITION_BITS
                       + self.cstate.membership_field_bits())
        if cstate_bits > X_CSTATE_BITS:
            # Without this check the padding arithmetic below would go
            # negative and silently emit a truncated C-state field.
            raise ValueError(
                f"C-state needs {cstate_bits} bits but the X-frame C-state "
                f"field is {X_CSTATE_BITS}: memberships past slot "
                f"{X_CSTATE_BITS - GLOBAL_TIME_BITS - MEDL_POSITION_BITS - 1} "
                f"cannot ride in X-frames (use I-frame slots)")

    kind_value = FrameKind.C_STATE.value

    @property
    def kind(self) -> FrameKind:
        return FrameKind.C_STATE

    @property
    def size_bits(self) -> int:
        # Header + explicit C-state field + data + two CRCs + pad.
        return (HEADER_BITS + X_CSTATE_BITS + len(self.data_bits)
                + 2 * CRC_BITS + X_CRC_PAD_BITS)

    def carries_explicit_cstate(self) -> bool:
        return True


@dataclass(frozen=True)
class ColdStartFrame(Frame):
    """Cold-start frame sent to initiate the TDMA round during startup.

    It carries the sender's claimed global time and round-slot position.
    Because no global time exists yet, receivers cannot verify the sender by
    arrival time -- the root cause of startup masquerading (Section 2.2).
    """

    kind_value = FrameKind.COLD_START.value

    @property
    def kind(self) -> FrameKind:
        return FrameKind.COLD_START

    @property
    def size_bits(self) -> int:
        return COLD_START_FRAME_BITS

    @property
    def round_slot(self) -> int:
        """Slot position claimed in the frame (== sender_slot for a correct
        sender; a masquerading node can claim another)."""
        return self.sender_slot


@dataclass(frozen=True)
class FrameObservation:
    """A frame as seen by a receiver on one channel during one slot.

    ``timing_offset`` is the frame's arrival deviation from the slot start
    in the receiver's local time units (used by the SOS model), and
    ``signal_level`` is the normalized analog amplitude (1.0 nominal).
    ``corrupted`` marks CRC/coding damage introduced by the channel.
    """

    frame: Optional[Frame]
    timing_offset: float = 0.0
    signal_level: float = 1.0
    corrupted: bool = False

    #: Receiver tolerance on timing offset (local time units).
    TIMING_TOLERANCE = 1.0
    #: Receiver threshold on signal amplitude.
    SIGNAL_THRESHOLD = 0.5

    def is_null(self) -> bool:
        """No activity observed in the slot (neither valid nor invalid)."""
        return self.frame is None and not self.corrupted

    def is_valid(self, timing_tolerance: Optional[float] = None,
                 signal_threshold: Optional[float] = None) -> bool:
        """Paper's *valid* test: starts/ends in the slot, no coding
        violations, no interference.

        Tolerances may be overridden per receiver -- slight hardware
        differences between receivers are what turns a marginal frame into
        an SOS fault (some receivers accept it, others reject it).
        """
        if self.frame is None:
            return False
        if self.corrupted:
            return False
        tol = self.TIMING_TOLERANCE if timing_tolerance is None else timing_tolerance
        threshold = (self.SIGNAL_THRESHOLD if signal_threshold is None
                     else signal_threshold)
        if abs(self.timing_offset) > tol:
            return False
        if self.signal_level < threshold:
            return False
        return True


#: Observation representing a silent slot.
SILENCE = FrameObservation(frame=None)
