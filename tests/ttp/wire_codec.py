"""The TTP/C wire codec and a receiver that runs on it: a test oracle.

TTP/C protects the C-state "explicitly or implicitly through its
inclusion in the CRC calculation": I-, X- and cold-start frames carry it
in a field, while an N-frame's 24-bit CRC is seeded with a digest of the
sender's C-state, so a CRC match proves both frame integrity and C-state
agreement.  The product's slot judge models both by comparing the frame's
C-state with the receiver's directly.  This module is the bit-level
reading of the same rules -- encoding, CRC-24, decoding -- and
:class:`WireLevelController`, a controller that receives every frame
through it.  Tests run clusters and the slot judge on it and compare
against the direct comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, List, Optional, Tuple

from repro.network.channel import Transmission
from repro.ttp.constants import (
    CRC_BITS,
    GLOBAL_TIME_BITS,
    HEADER_BITS,
    I_FRAME_BITS,
    MAX_MEMBERSHIP_SLOTS,
    MEDL_POSITION_BITS,
    MEMBERSHIP_BITS,
    N_FRAME_BITS,
    ROUND_SLOT_BITS,
    X_CRC_PAD_BITS,
    X_CSTATE_BITS,
)
from repro.ttp.controller import TTPController
from repro.ttp.cstate import CState
from repro.ttp.frames import (
    ColdStartFrame,
    Frame,
    FrameObservation,
    IFrame,
    NFrame,
    XFrame,
)

# -- CRC ------------------------------------------------------------------------

#: Polynomial for the 24-bit CRC (CRC-24/OPENPGP generator, a standard
#: 24-bit polynomial; TTP/C's exact polynomial is schedule-dependent and the
#: analysis only depends on the width).
CRC24_POLYNOMIAL = 0x864CFB

#: Polynomial for the 16-bit CRC (CRC-16/CCITT), used for host data checks.
CRC16_POLYNOMIAL = 0x1021


def _crc(bits: Iterable[int], width: int, polynomial: int, seed: int) -> int:
    """Generic MSB-first CRC over a sequence of bits (each 0 or 1)."""
    top_bit = 1 << (width - 1)
    mask = (1 << width) - 1
    register = seed & mask
    for bit in bits:
        if bit not in (0, 1):
            raise ValueError(f"bit values must be 0 or 1, got {bit!r}")
        register ^= (bit & 1) << (width - 1)
        if register & top_bit:
            register = ((register << 1) ^ polynomial) & mask
        else:
            register = (register << 1) & mask
    return register


def crc24(bits: Iterable[int], seed: int = 0) -> int:
    """24-bit CRC over a bit sequence.

    ``seed`` implements TTP/C's *implicit C-state* protection: seeding
    with a digest of the sender's C-state makes the CRC match only for
    receivers holding the same C-state.
    """
    return _crc(bits, 24, CRC24_POLYNOMIAL, seed)


def crc16(bits: Iterable[int], seed: int = 0) -> int:
    """16-bit CRC-CCITT over a bit sequence."""
    return _crc(bits, 16, CRC16_POLYNOMIAL, seed)


def int_to_bits(value: int, width: int) -> list:
    """MSB-first bit list of ``value`` in ``width`` bits.

    Raises if the value does not fit -- the frame encoders rely on this to
    catch field overflows early.
    """
    if value < 0:
        raise ValueError(f"cannot encode negative value {value!r}")
    if value >= (1 << width):
        raise ValueError(f"value {value!r} does not fit in {width} bits")
    return [(value >> shift) & 1 for shift in range(width - 1, -1, -1)]


def bits_to_int(bits: Iterable[int]) -> int:
    """Inverse of :func:`int_to_bits` (MSB first)."""
    value = 0
    for bit in bits:
        if bit not in (0, 1):
            raise ValueError(f"bit values must be 0 or 1, got {bit!r}")
        value = (value << 1) | bit
    return value


# -- C-state fields ----------------------------------------------------------------


def cstate_bits(cstate: CState) -> list:
    """Explicit C-state field encoding (global time, MEDL position,
    membership), MSB first."""
    bits = []
    bits.extend(int_to_bits(cstate.global_time, GLOBAL_TIME_BITS))
    bits.extend(int_to_bits(cstate.medl_position, MEDL_POSITION_BITS))
    bits.extend(int_to_bits(cstate.membership_word(),
                            cstate.membership_field_bits()))
    return bits


def cstate_as_tuple(cstate: CState) -> Tuple[int, int, int, int]:
    """The C-state fields a receiver compares, as a hashable tuple:
    global time, MEDL position, membership word and DMC mode."""
    return (cstate.global_time, cstate.medl_position, cstate.membership_word(),
            cstate.dmc_mode)


def cstates_agree(first: CState, second: CState) -> bool:
    """Whether two C-states match for frame-correctness purposes."""
    return cstate_as_tuple(first) == cstate_as_tuple(second)


def cstate_digest(cstate: CState) -> int:
    """24-bit digest used to seed implicit-C-state CRCs."""
    return crc24(cstate_bits(cstate))


def cstate_from_fields(global_time: int, medl_position: int,
                       membership_word: int, dmc_mode: int = 0) -> CState:
    """Rebuild a C-state from decoded wire fields.

    Bits past the 64-slot ceiling can only appear through wire corruption
    (no encoder sets them); they are dropped here so the damage is
    reported through the CRC verdict, not an exception.
    """
    members = frozenset(
        index for index in range(
            min(membership_word.bit_length(), MAX_MEMBERSHIP_SLOTS + 1))
        if membership_word & (1 << index))
    return CState(global_time=global_time, medl_position=medl_position,
                  membership=members, dmc_mode=dmc_mode)


# -- frame encoding -------------------------------------------------------------------


def payload_bits(frame: Frame) -> List[int]:
    """Frame bits excluding the (outer) CRC field."""
    if isinstance(frame, NFrame):
        return int_to_bits(frame.mode_change_request, HEADER_BITS)
    if isinstance(frame, IFrame):
        bits = int_to_bits(frame.mode_change_request, HEADER_BITS)
        bits.extend(cstate_bits(frame.cstate))
        return bits
    if isinstance(frame, XFrame):
        bits = int_to_bits(frame.mode_change_request, HEADER_BITS)
        # The X-frame C-state field is fixed at 96 bits with fixed
        # sub-field widths (16 global time + 16 MEDL position + 64
        # membership), so a decoder needs no width negotiation: narrow
        # memberships just leave the high membership bits zero.
        cstate = frame.cstate
        bits.extend(int_to_bits(cstate.global_time, GLOBAL_TIME_BITS))
        bits.extend(int_to_bits(cstate.medl_position, MEDL_POSITION_BITS))
        bits.extend(int_to_bits(
            cstate.membership_word(),
            X_CSTATE_BITS - GLOBAL_TIME_BITS - MEDL_POSITION_BITS))
        bits.extend(frame.data_bits)
        # First CRC covers header+cstate+data; encode() appends the second.
        bits.extend(int_to_bits(crc24(bits), CRC_BITS))
        bits.extend([0] * X_CRC_PAD_BITS)
        return bits
    if isinstance(frame, ColdStartFrame):
        bits = [1]  # frame-type bit
        bits.extend(int_to_bits(frame.cstate.global_time, GLOBAL_TIME_BITS))
        bits.extend(int_to_bits(frame.sender_slot, ROUND_SLOT_BITS))
        return bits
    raise NotImplementedError(f"no wire format for {type(frame).__name__}")


def crc_seed(frame: Frame) -> int:
    """Seed of the frame CRC: the C-state digest for an N-frame (implicit
    C-state), 0 for every other frame."""
    if isinstance(frame, NFrame):
        return cstate_digest(frame.cstate)
    return 0


def crc_value(frame: Frame) -> int:
    """CRC the sender computes for this frame."""
    return crc24(payload_bits(frame), seed=crc_seed(frame))


def encode(frame: Frame) -> List[int]:
    """Full wire bit pattern (payload + CRC), MSB first."""
    bits = payload_bits(frame)
    bits.extend(int_to_bits(crc_value(frame), CRC_BITS))
    return bits


# -- frame decoding -------------------------------------------------------------------
#
# TTP/C receivers know what to expect in each slot from the MEDL, but
# during startup and integration they must classify frames from the wire
# alone; the decoder disambiguates by length (every frame type has a
# distinct wire size except X-frames, which are recognized by exceeding
# the I-frame size) and verifies the trailing CRC.

#: Wire length of a cold-start frame as actually encoded (the paper's own
#: field list: 1 type bit + 16 time + 9 round-slot + 24 CRC).
COLD_START_WIRE_BITS = 1 + GLOBAL_TIME_BITS + ROUND_SLOT_BITS + CRC_BITS

#: Minimum wire length of an X-frame (zero data bits).
X_FRAME_MIN_WIRE_BITS = (HEADER_BITS + X_CSTATE_BITS + 2 * CRC_BITS
                         + X_CRC_PAD_BITS)

#: Non-membership portion of an I-frame; its wire length is this plus the
#: (16-bit-multiple) membership field, so valid I-frame lengths are
#: ``I_FRAME_BITS + 16k``.
_I_FRAME_FIXED_BITS = (HEADER_BITS + GLOBAL_TIME_BITS + MEDL_POSITION_BITS
                       + CRC_BITS)

#: Largest I-frame a 64-slot cluster can emit (80-bit membership field).
I_FRAME_MAX_WIRE_BITS = _I_FRAME_FIXED_BITS + 80


class DecodeError(ValueError):
    """Raised when the bits cannot be parsed as any frame type."""


@dataclass(frozen=True)
class DecodedFrame:
    """A decoding outcome: the reconstructed frame and its CRC verdict."""

    frame: Frame
    crc_ok: bool


def _split_crc(bits: List[int]) -> tuple:
    return bits[:-CRC_BITS], bits_to_int(bits[-CRC_BITS:])


def _decode_cstate_fields(bits: List[int],
                          membership_bits: int = MEMBERSHIP_BITS) -> CState:
    cursor = 0
    global_time = bits_to_int(bits[cursor:cursor + GLOBAL_TIME_BITS])
    cursor += GLOBAL_TIME_BITS
    position = bits_to_int(bits[cursor:cursor + MEDL_POSITION_BITS])
    cursor += MEDL_POSITION_BITS
    membership_word = bits_to_int(bits[cursor:cursor + membership_bits])
    return cstate_from_fields(global_time, position, membership_word)


def decode_n_frame(bits: List[int], receiver_cstate: CState,
                   sender_slot: int = 0) -> DecodedFrame:
    """Decode an N-frame against the receiver's C-state hypothesis.

    A CRC match proves both integrity and (implicit) C-state agreement;
    on mismatch the receiver cannot tell corruption from disagreement --
    the defining ambiguity of implicit C-state protection.
    """
    if len(bits) != N_FRAME_BITS:
        raise DecodeError(f"N-frame must be {N_FRAME_BITS} bits, got {len(bits)}")
    payload, crc = _split_crc(list(bits))
    mode_change_request = bits_to_int(payload[:HEADER_BITS])
    frame = NFrame(sender_slot=sender_slot, cstate=receiver_cstate,
                   mode_change_request=mode_change_request)
    crc_ok = crc24(payload, seed=cstate_digest(receiver_cstate)) == crc
    return DecodedFrame(frame=frame, crc_ok=crc_ok)


def decode_i_frame(bits: List[int], sender_slot: int = 0) -> DecodedFrame:
    """Decode an explicit-C-state I-frame.

    The membership field is the paper's 16 bits in the minimum
    configuration and pads in 16-bit steps for larger clusters, so valid
    I-frame lengths are ``I_FRAME_BITS + 16k`` up to the 64-slot maximum.
    """
    length = len(bits)
    membership_bits = length - _I_FRAME_FIXED_BITS
    if (membership_bits < MEMBERSHIP_BITS or membership_bits % MEMBERSHIP_BITS
            or length > I_FRAME_MAX_WIRE_BITS):
        raise DecodeError(
            f"I-frames are {I_FRAME_BITS}..{I_FRAME_MAX_WIRE_BITS} bits in "
            f"16-bit steps, got {length}")
    payload, crc = _split_crc(list(bits))
    mode_change_request = bits_to_int(payload[:HEADER_BITS])
    cstate = _decode_cstate_fields(payload[HEADER_BITS:],
                                   membership_bits=membership_bits)
    # The deferred-mode-change request travels in the header field.
    cstate = replace(cstate, dmc_mode=mode_change_request)
    frame = IFrame(sender_slot=sender_slot or cstate.medl_position,
                   cstate=cstate, mode_change_request=mode_change_request)
    crc_ok = crc24(payload) == crc
    return DecodedFrame(frame=frame, crc_ok=crc_ok)


def decode_cold_start_frame(bits: List[int]) -> DecodedFrame:
    """Decode a cold-start frame (type bit, global time, round slot)."""
    if len(bits) != COLD_START_WIRE_BITS:
        raise DecodeError(f"cold-start frame must be {COLD_START_WIRE_BITS} "
                          f"bits, got {len(bits)}")
    payload, crc = _split_crc(list(bits))
    if payload[0] != 1:
        raise DecodeError("cold-start type bit is not set")
    cursor = 1
    global_time = bits_to_int(payload[cursor:cursor + GLOBAL_TIME_BITS])
    cursor += GLOBAL_TIME_BITS
    round_slot = bits_to_int(payload[cursor:cursor + ROUND_SLOT_BITS])
    if round_slot == 0:
        raise DecodeError("cold-start round slot 0 is not a valid position")
    cstate = CState(global_time=global_time, medl_position=round_slot)
    frame = ColdStartFrame(sender_slot=round_slot, cstate=cstate)
    crc_ok = crc24(payload) == crc
    return DecodedFrame(frame=frame, crc_ok=crc_ok)


def decode_x_frame(bits: List[int], sender_slot: int = 0) -> DecodedFrame:
    """Decode an X-frame (explicit C-state plus application data)."""
    if len(bits) < X_FRAME_MIN_WIRE_BITS:
        raise DecodeError(
            f"X-frame needs at least {X_FRAME_MIN_WIRE_BITS} bits, got {len(bits)}")
    data_bits_count = len(bits) - X_FRAME_MIN_WIRE_BITS
    cursor = 0
    mode_change_request = bits_to_int(bits[cursor:cursor + HEADER_BITS])
    cursor += HEADER_BITS
    cstate_field = bits[cursor:cursor + X_CSTATE_BITS]
    # Read the membership over the full remainder of the fixed C-state
    # field: wide memberships (up to the 64 bits the field can hold) decode
    # correctly and the zero padding after a narrow one is harmless
    # (``cstate_from_fields`` keys members off set bits only).
    cstate = _decode_cstate_fields(
        cstate_field,
        membership_bits=X_CSTATE_BITS - GLOBAL_TIME_BITS - MEDL_POSITION_BITS)
    cursor += X_CSTATE_BITS
    data = tuple(bits[cursor:cursor + data_bits_count])
    cursor += data_bits_count
    inner_crc = bits_to_int(bits[cursor:cursor + CRC_BITS])
    cursor += CRC_BITS
    # Inner CRC covers header + C-state field + data.
    crc_ok = crc24(bits[:HEADER_BITS + X_CSTATE_BITS + data_bits_count]) == inner_crc
    pad = bits[cursor:cursor + X_CRC_PAD_BITS]
    cursor += X_CRC_PAD_BITS
    outer_crc = bits_to_int(bits[cursor:cursor + CRC_BITS])
    crc_ok = crc_ok and crc24(bits[:-CRC_BITS]) == outer_crc
    crc_ok = crc_ok and all(bit == 0 for bit in pad)
    cstate = replace(cstate, dmc_mode=mode_change_request)
    frame = XFrame(sender_slot=sender_slot or cstate.medl_position,
                   cstate=cstate, mode_change_request=mode_change_request,
                   data_bits=data)
    return DecodedFrame(frame=frame, crc_ok=crc_ok)


def decode_frame(bits: List[int],
                 receiver_cstate: Optional[CState] = None) -> DecodedFrame:
    """Classify by wire length and decode.

    ``receiver_cstate`` is required to decode (and validate) an N-frame,
    whose C-state is implicit.
    """
    length = len(bits)
    if length == N_FRAME_BITS:
        if receiver_cstate is None:
            raise DecodeError(
                "decoding an N-frame requires the receiver's C-state "
                "(implicit C-state protection)")
        return decode_n_frame(bits, receiver_cstate)
    if length == COLD_START_WIRE_BITS:
        return decode_cold_start_frame(bits)
    if (I_FRAME_BITS <= length <= I_FRAME_MAX_WIRE_BITS
            and (length - I_FRAME_BITS) % MEMBERSHIP_BITS == 0):
        # Unambiguous: every I-frame length (76..140 in 16-bit steps) is
        # below the 156-bit X-frame minimum and distinct from N/cold-start.
        return decode_i_frame(bits)
    if length >= X_FRAME_MIN_WIRE_BITS:
        return decode_x_frame(bits)
    raise DecodeError(f"no frame type has a {length}-bit wire format")


# -- the receiver on the wire -----------------------------------------------------------


class WireLevelController(TTPController):
    """A controller that receives every frame through the wire codec.

    Each received frame is encoded, channel corruption becomes an actual
    bit flip, and the receiver decodes and CRC-checks the bits -- an
    N-frame validates only against the receiver's own C-state (the
    implicit C-state mechanism).  Everything else is the product
    controller.
    """

    def _make_observation(self, transmission: Transmission,
                          corrupted: bool) -> FrameObservation:
        bits = encode(transmission.frame)
        if corrupted:
            bits[len(bits) // 2] ^= 1
        # The N-frame hypothesis follows the sender-inclusion rule: the
        # receiver validates against its own C-state with the *scheduled*
        # sender's membership bit set (the sender believes in itself), and
        # with the DMC field neutral (it travels in the header, not in the
        # implicit C-state digest).
        hypothesis = replace(
            self.cstate,
            membership=self.view.membership_set() | {self.slot},
            dmc_mode=0)
        try:
            decoded = decode_frame(bits, receiver_cstate=hypothesis)
        except DecodeError:
            return FrameObservation(frame=transmission.frame, corrupted=True)
        return FrameObservation(
            frame=decoded.frame,
            timing_offset=transmission.shape.timing_offset,
            signal_level=transmission.shape.level,
            corrupted=not decoded.crc_ok)

    def _judge_completed_slot(self, mailbox) -> None:
        """Replace each channel's sole transmission by what the receiver
        decoded from its bits, with the CRC verdict as its corruption flag,
        then judge as the product does.  A channel with interference is
        invalid whatever its bits say, so it is not decoded."""
        channels = [entry[0] for entry in mailbox]
        decoded = []
        for channel_index, transmission, corrupted in mailbox:
            if channels.count(channel_index) == 1:
                observation = self._make_observation(transmission, corrupted)
                transmission = replace(transmission, frame=observation.frame)
                corrupted = observation.corrupted
            decoded.append((channel_index, transmission, corrupted))
        super()._judge_completed_slot(decoded)
