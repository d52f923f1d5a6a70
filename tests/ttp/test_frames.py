"""Tests for frame encoding and the valid/correct/null classification."""

import pytest

from repro.ttp.constants import (
    COLD_START_FRAME_BITS,
    I_FRAME_BITS,
    N_FRAME_BITS,
    X_FRAME_BITS,
    FrameKind,
)
from repro.ttp.cstate import CState
from repro.ttp.frames import (
    SILENCE,
    ColdStartFrame,
    FrameObservation,
    IFrame,
    NFrame,
    XFrame,
)
from tests.ttp.wire_codec import (crc_seed, crc_value, cstates_agree, encode,
                                  payload_bits)


def make_cstate(time=5, position=2, members=(1, 2)):
    return CState(global_time=time, medl_position=position,
                  membership=frozenset(members))


def is_correct(observation, receiver_cstate):
    """Paper's *correct* test: valid and C-state/CRC agree with the
    receiver's C-state."""
    if not observation.is_valid():
        return False
    return cstates_agree(observation.frame.cstate, receiver_cstate)


# -- sizes -----------------------------------------------------------------------


def test_n_frame_encodes_to_28_bits():
    frame = NFrame(sender_slot=1, cstate=make_cstate())
    assert frame.size_bits == N_FRAME_BITS
    assert len(encode(frame)) == N_FRAME_BITS


def test_i_frame_encodes_to_76_bits():
    frame = IFrame(sender_slot=1, cstate=make_cstate())
    assert frame.size_bits == I_FRAME_BITS
    assert len(encode(frame)) == I_FRAME_BITS


def test_x_frame_max_size_is_2076_bits():
    frame = XFrame(sender_slot=1, cstate=make_cstate(),
                   data_bits=tuple([1, 0] * 960))
    assert frame.size_bits == X_FRAME_BITS
    assert len(encode(frame)) == X_FRAME_BITS


def test_x_frame_data_limit():
    with pytest.raises(ValueError):
        XFrame(sender_slot=1, data_bits=tuple([0] * 1921))


def test_x_frame_rejects_non_bits():
    with pytest.raises(ValueError):
        XFrame(sender_slot=1, data_bits=(0, 2))


def test_cold_start_frame_size_matches_paper():
    frame = ColdStartFrame(sender_slot=3, cstate=make_cstate())
    assert frame.size_bits == COLD_START_FRAME_BITS


# -- kinds and C-state exposure -----------------------------------------------------


def test_frame_kinds():
    assert NFrame(sender_slot=1).kind is FrameKind.OTHER
    assert IFrame(sender_slot=1).kind is FrameKind.C_STATE
    assert XFrame(sender_slot=1).kind is FrameKind.C_STATE
    assert ColdStartFrame(sender_slot=1).kind is FrameKind.COLD_START


def test_explicit_cstate_flags():
    assert not NFrame(sender_slot=1).carries_explicit_cstate()
    assert IFrame(sender_slot=1).carries_explicit_cstate()
    assert XFrame(sender_slot=1).carries_explicit_cstate()
    assert not ColdStartFrame(sender_slot=1).carries_explicit_cstate()


def test_n_frame_crc_is_cstate_seeded():
    cstate_a = make_cstate(time=1)
    cstate_b = make_cstate(time=2)
    frame_a = NFrame(sender_slot=1, cstate=cstate_a)
    frame_b = NFrame(sender_slot=1, cstate=cstate_b)
    assert payload_bits(frame_a) == payload_bits(frame_b)
    assert crc_value(frame_a) != crc_value(frame_b)


def test_i_frame_crc_not_seeded_but_payload_differs():
    frame_a = IFrame(sender_slot=1, cstate=make_cstate(time=1))
    frame_b = IFrame(sender_slot=1, cstate=make_cstate(time=2))
    assert crc_seed(frame_a) == crc_seed(frame_b) == 0
    assert payload_bits(frame_a) != payload_bits(frame_b)


def test_cold_start_round_slot():
    frame = ColdStartFrame(sender_slot=3, cstate=make_cstate(position=3))
    assert frame.round_slot == 3


# -- observations ----------------------------------------------------------------------


def test_silence_is_null():
    assert SILENCE.is_null()
    assert not SILENCE.is_valid()


def test_corrupted_empty_slot_not_null():
    observation = FrameObservation(frame=None, corrupted=True)
    assert not observation.is_null()
    assert not observation.is_valid()


def test_nominal_frame_is_valid():
    observation = FrameObservation(frame=IFrame(sender_slot=1))
    assert observation.is_valid()


def test_corruption_invalidates():
    observation = FrameObservation(frame=IFrame(sender_slot=1), corrupted=True)
    assert not observation.is_valid()


def test_timing_offset_outside_tolerance_invalid():
    observation = FrameObservation(frame=IFrame(sender_slot=1), timing_offset=2.0)
    assert not observation.is_valid()
    assert observation.is_valid(timing_tolerance=3.0)


def test_weak_signal_invalid():
    observation = FrameObservation(frame=IFrame(sender_slot=1), signal_level=0.3)
    assert not observation.is_valid()
    assert observation.is_valid(signal_threshold=0.2)


def test_sos_disagreement_between_receivers():
    """The SOS essence: one receiver's tolerances accept, another's reject."""
    marginal = FrameObservation(frame=IFrame(sender_slot=1), signal_level=0.55)
    assert marginal.is_valid(signal_threshold=0.5)
    assert not marginal.is_valid(signal_threshold=0.6)


def test_correctness_requires_matching_cstate():
    cstate = make_cstate()
    observation = FrameObservation(frame=IFrame(sender_slot=2, cstate=cstate))
    assert is_correct(observation, cstate)
    assert not is_correct(observation, make_cstate(time=99))


def test_correctness_requires_validity():
    cstate = make_cstate()
    observation = FrameObservation(frame=IFrame(sender_slot=2, cstate=cstate),
                                   corrupted=True)
    assert not is_correct(observation, cstate)


def test_encoded_frames_differ_between_senders():
    frame_a = ColdStartFrame(sender_slot=1, cstate=make_cstate())
    frame_b = ColdStartFrame(sender_slot=2, cstate=make_cstate())
    assert encode(frame_a) != encode(frame_b)
