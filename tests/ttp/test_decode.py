"""Frame encode/decode roundtrips and corruption detection."""

import pytest
from hypothesis import given, strategies as st

from repro.ttp.cstate import CState
from repro.ttp.frames import ColdStartFrame, IFrame, NFrame, XFrame
from tests.ttp.wire_codec import (
    COLD_START_WIRE_BITS,
    DecodeError,
    decode_cold_start_frame,
    decode_frame,
    decode_i_frame,
    decode_n_frame,
    decode_x_frame,
    encode,
)

cstates = st.builds(
    CState,
    global_time=st.integers(min_value=0, max_value=(1 << 16) - 1),
    medl_position=st.integers(min_value=1, max_value=64),
    membership=st.sets(st.integers(min_value=0, max_value=15),
                       max_size=16).map(frozenset))


# -- roundtrips -----------------------------------------------------------------


@given(cstates, st.integers(min_value=0, max_value=15))
def test_i_frame_roundtrip(cstate, mcr):
    from dataclasses import replace

    original = IFrame(sender_slot=cstate.medl_position, cstate=cstate,
                      mode_change_request=mcr)
    decoded = decode_frame(encode(original))
    assert decoded.crc_ok
    # The wire carries the DMC in the header field, so the reconstructed
    # C-state's dmc_mode equals the mode-change request.
    assert decoded.frame.cstate == replace(cstate, dmc_mode=mcr)
    assert decoded.frame.mode_change_request == mcr


@given(st.integers(min_value=0, max_value=(1 << 16) - 1),
       st.integers(min_value=1, max_value=(1 << 9) - 1))
def test_cold_start_roundtrip(global_time, round_slot):
    cstate = CState(global_time=global_time, medl_position=round_slot)
    original = ColdStartFrame(sender_slot=round_slot, cstate=cstate)
    decoded = decode_frame(encode(original))
    assert decoded.crc_ok
    assert isinstance(decoded.frame, ColdStartFrame)
    assert decoded.frame.round_slot == round_slot
    assert decoded.frame.cstate.global_time == global_time


@given(cstates, st.lists(st.integers(min_value=0, max_value=1), max_size=64))
def test_x_frame_roundtrip(cstate, data):
    original = XFrame(sender_slot=cstate.medl_position, cstate=cstate,
                      data_bits=tuple(data))
    decoded = decode_frame(encode(original))
    assert decoded.crc_ok
    assert isinstance(decoded.frame, XFrame)
    assert decoded.frame.data_bits == tuple(data)
    assert decoded.frame.cstate == cstate


@given(cstates)
def test_n_frame_roundtrip_with_matching_cstate(cstate):
    original = NFrame(sender_slot=1, cstate=cstate)
    decoded = decode_frame(encode(original), receiver_cstate=cstate)
    assert decoded.crc_ok


@given(cstates)
def test_n_frame_implicit_cstate_mismatch_fails_crc(cstate):
    """The paper's implicit-C-state mechanism: a receiver holding a
    different C-state cannot validate the CRC."""
    other = CState(global_time=(cstate.global_time + 1) % (1 << 16),
                   medl_position=cstate.medl_position,
                   membership=cstate.membership)
    original = NFrame(sender_slot=1, cstate=cstate)
    decoded = decode_frame(encode(original), receiver_cstate=other)
    assert not decoded.crc_ok


# -- corruption detection --------------------------------------------------------


@given(cstates, st.data())
def test_single_bit_flip_detected_i_frame(cstate, data):
    original = IFrame(sender_slot=cstate.medl_position, cstate=cstate)
    bits = encode(original)
    position = data.draw(st.integers(min_value=0, max_value=len(bits) - 1))
    bits[position] ^= 1
    decoded = decode_i_frame(bits)
    assert not decoded.crc_ok


@given(st.data())
def test_single_bit_flip_detected_cold_start(data):
    original = ColdStartFrame(sender_slot=3,
                              cstate=CState(global_time=99, medl_position=3))
    bits = encode(original)
    # Skip the type bit: flipping it is a parse error, not a CRC miss.
    position = data.draw(st.integers(min_value=1, max_value=len(bits) - 1))
    bits[position] ^= 1
    decoded = decode_cold_start_frame(bits)
    assert not decoded.crc_ok


@given(st.data())
def test_single_bit_flip_detected_x_frame(data):
    original = XFrame(sender_slot=2,
                      cstate=CState(global_time=5, medl_position=2),
                      data_bits=(1, 0, 1, 1))
    bits = encode(original)
    position = data.draw(st.integers(min_value=0, max_value=len(bits) - 1))
    bits[position] ^= 1
    decoded = decode_x_frame(bits)
    assert not decoded.crc_ok


# -- classification and errors -----------------------------------------------------


def test_length_classification():
    cstate = CState(global_time=1, medl_position=2)
    assert isinstance(decode_frame(encode(IFrame(sender_slot=2, cstate=cstate))).frame,
                      IFrame)
    assert isinstance(decode_frame(
        encode(ColdStartFrame(sender_slot=2, cstate=cstate))).frame,
        ColdStartFrame)
    assert isinstance(decode_frame(
        encode(XFrame(sender_slot=2, cstate=cstate))).frame, XFrame)


def test_cold_start_wire_size_is_field_sum():
    """The wire format follows the paper's field list (50 bits), while the
    headline COLD_START_FRAME_BITS keeps the paper's stated 40 -- the
    documented inconsistency."""
    cstate = CState(global_time=0, medl_position=1)
    assert len(encode(ColdStartFrame(sender_slot=1, cstate=cstate))) \
        == COLD_START_WIRE_BITS == 50


def test_n_frame_requires_receiver_cstate():
    frame = NFrame(sender_slot=1, cstate=CState(medl_position=1))
    with pytest.raises(DecodeError):
        decode_frame(encode(frame))


def test_unclassifiable_length_rejected():
    with pytest.raises(DecodeError):
        decode_frame([0] * 33)


def test_wrong_length_per_type_rejected():
    with pytest.raises(DecodeError):
        decode_n_frame([0] * 10, CState(medl_position=1))
    with pytest.raises(DecodeError):
        decode_i_frame([0] * 10)
    with pytest.raises(DecodeError):
        decode_x_frame([0] * 10)


def test_cold_start_type_bit_enforced():
    bits = [0] * COLD_START_WIRE_BITS
    with pytest.raises(DecodeError):
        decode_cold_start_frame(bits)


def test_cold_start_round_slot_zero_rejected():
    frame = ColdStartFrame(sender_slot=0, cstate=CState(medl_position=0))
    with pytest.raises(DecodeError):
        decode_cold_start_frame(encode(frame))


# -- bridge: frames from the live simulation survive the wire ------------------------


def test_simulated_cluster_frames_decode_cleanly():
    """Capture real traffic from a simulated startup and push every frame
    through encode -> decode: the wire layer agrees with the object layer."""
    from repro.cluster import Cluster, ClusterSpec

    cluster = Cluster(ClusterSpec(topology="star"))
    captured = []
    cluster.topology.attach_receiver(
        lambda channel, tx, corrupted: captured.append(tx.frame)
        if channel == 0 else None)
    cluster.power_on()
    cluster.run(rounds=10)

    assert captured
    seen_kinds = set()
    for frame in captured:
        decoded = decode_frame(encode(frame),
                               receiver_cstate=frame.cstate)
        assert decoded.crc_ok
        assert decoded.frame.cstate.global_time == frame.cstate.global_time
        assert decoded.frame.cstate.medl_position == frame.cstate.medl_position
        seen_kinds.add(type(frame).__name__)
    assert {"ColdStartFrame", "IFrame"} <= seen_kinds
