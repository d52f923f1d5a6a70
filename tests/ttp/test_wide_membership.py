"""Wide membership wire fields: clusters past 16 slots on the wire.

The paper's 4-node cluster fits its membership vector in one 16-bit
word; the wire format pads to the next 16-bit multiple as slots grow
(bit index = 1-based slot id, bit 0 reserved), up to the 64-slot TTP/C
ceiling -- an 80-bit field.  These tests pin the I-frame round-trip and
CRC behaviour at the interesting widths, and the X-frame's fixed 96-bit
C-state field that caps ITS memberships at slot 63.
"""

import pytest
from dataclasses import replace

from repro.ttp.cstate import CState
from repro.ttp.frames import (
    IFrame,
    XFrame,
    i_frame_wire_bits,
    membership_field_bits_for,
)
from tests.ttp.wire_codec import (
    I_FRAME_MAX_WIRE_BITS,
    decode_frame,
    decode_i_frame,
    encode,
)

#: (slot count, expected membership field width, expected I-frame width).
WIDTHS = [
    (4, 16, 76),
    (15, 16, 76),
    (16, 32, 92),   # slot 16 needs bit 16: the field pads to 32
    (17, 32, 92),
    (32, 48, 108),
    (33, 48, 108),
    (48, 64, 124),
    (49, 64, 124),
    (64, 80, 140),
]


@pytest.mark.parametrize("slots,field_bits,frame_bits", WIDTHS)
def test_field_and_frame_widths(slots, field_bits, frame_bits):
    assert membership_field_bits_for(slots) == field_bits
    assert i_frame_wire_bits(slots) == frame_bits


def full_membership(slots):
    return frozenset(range(1, slots + 1))


@pytest.mark.parametrize("slots", [17, 33, 64])
def test_i_frame_roundtrip_at_wide_memberships(slots):
    cstate = CState(global_time=12345, medl_position=slots,
                    membership=full_membership(slots))
    frame = IFrame(sender_slot=slots, cstate=cstate)
    assert frame.size_bits == i_frame_wire_bits(slots)
    bits = encode(frame)
    assert len(bits) == frame.size_bits
    decoded = decode_frame(bits)
    assert decoded.crc_ok
    assert isinstance(decoded.frame, IFrame)
    assert decoded.frame.cstate == cstate


@pytest.mark.parametrize("slots", [17, 33, 64])
def test_sparse_high_memberships_roundtrip(slots):
    # Only the highest slot present: the field width follows the highest
    # member, and the lone set bit survives the trip.
    cstate = CState(membership=frozenset({slots}), medl_position=1)
    decoded = decode_frame(encode(IFrame(sender_slot=1, cstate=cstate)))
    assert decoded.crc_ok
    assert decoded.frame.cstate.membership == frozenset({slots})


@pytest.mark.parametrize("slots", [17, 33, 64])
def test_crc_catches_corruption_in_wide_frames(slots):
    bits = list(encode(IFrame(
        sender_slot=slots,
        cstate=CState(membership=full_membership(slots),
                      medl_position=slots))))
    # Flip one bit inside the widened membership region.
    bits[40] ^= 1
    assert not decode_i_frame(bits).crc_ok


def test_i_frame_wire_lengths_are_unambiguous():
    """decode_frame classifies every legal I-frame width as an I-frame."""
    for slots, _, frame_bits in WIDTHS:
        decoded = decode_frame(encode(IFrame(
            sender_slot=1,
            cstate=CState(membership=frozenset({slots}),
                          medl_position=1))))
        assert isinstance(decoded.frame, IFrame)
        assert frame_bits <= I_FRAME_MAX_WIRE_BITS


def test_x_frame_carries_memberships_through_slot_63():
    cstate = CState(membership=full_membership(63), medl_position=5)
    decoded = decode_frame(encode(XFrame(sender_slot=5, cstate=cstate,
                                         data_bits=(1, 0, 1))))
    assert decoded.crc_ok
    assert decoded.frame.cstate == replace(cstate, dmc_mode=0)


def test_x_frame_rejects_slot_64_membership():
    """The X-frame C-state field is fixed at 96 bits (16 GT + 16 POS +
    64 membership): slot 64 needs an 80-bit membership word and cannot
    ride in an X-frame."""
    cstate = CState(membership=frozenset({64}), medl_position=5)
    with pytest.raises(ValueError, match="X-frame"):
        XFrame(sender_slot=5, cstate=cstate, data_bits=())
