"""Tests for the wire codec's CRCs, including property-based checks."""

import pytest
from hypothesis import given, strategies as st

from tests.ttp.wire_codec import bits_to_int, crc16, crc24, int_to_bits

bit_lists = st.lists(st.integers(min_value=0, max_value=1), min_size=0, max_size=128)


def test_crc24_empty_is_seed_evolution():
    assert crc24([]) == 0
    assert crc24([], seed=0x123456) == 0x123456


def test_crc24_deterministic():
    bits = [1, 0, 1, 1, 0, 0, 1, 0]
    assert crc24(bits) == crc24(bits)


def test_crc24_detects_single_bit_flip():
    bits = [1, 0, 1, 1, 0, 0, 1, 0] * 4
    reference = crc24(bits)
    for position in range(len(bits)):
        flipped = list(bits)
        flipped[position] ^= 1
        assert crc24(flipped) != reference


def test_crc24_seed_changes_value():
    bits = [1, 0, 1, 0]
    assert crc24(bits, seed=1) != crc24(bits, seed=2)


def test_crc24_within_width():
    assert 0 <= crc24([1] * 100) < (1 << 24)


def test_crc16_within_width():
    assert 0 <= crc16([1] * 100) < (1 << 16)


def test_crc_rejects_non_bits():
    with pytest.raises(ValueError):
        crc24([2])


def test_int_to_bits_round_trip_known_value():
    assert int_to_bits(0b1011, 4) == [1, 0, 1, 1]
    assert bits_to_int([1, 0, 1, 1]) == 0b1011


def test_int_to_bits_pads_to_width():
    assert int_to_bits(1, 4) == [0, 0, 0, 1]


def test_int_to_bits_rejects_overflow():
    with pytest.raises(ValueError):
        int_to_bits(16, 4)


def test_int_to_bits_rejects_negative():
    with pytest.raises(ValueError):
        int_to_bits(-1, 4)


def test_bits_to_int_rejects_non_bits():
    with pytest.raises(ValueError):
        bits_to_int([0, 1, 2])


@given(st.integers(min_value=0, max_value=(1 << 24) - 1))
def test_int_bits_roundtrip(value):
    assert bits_to_int(int_to_bits(value, 24)) == value


@given(bit_lists)
def test_crc24_is_pure(bits):
    assert crc24(bits) == crc24(list(bits))


@given(bit_lists, st.integers(min_value=0, max_value=(1 << 24) - 1))
def test_crc24_seed_sensitivity(bits, seed):
    # Different seeds must yield different CRCs (the implicit C-state
    # mechanism depends on it) -- for the zero-length message trivially.
    other_seed = (seed + 1) % (1 << 24)
    if not bits:
        assert crc24(bits, seed) != crc24(bits, other_seed)


@given(bit_lists)
def test_crc24_appending_crc_yields_zero_remainder(bits):
    """Classic CRC property: message + its CRC has remainder 0."""
    value = crc24(bits)
    extended = list(bits) + int_to_bits(value, 24)
    assert crc24(extended) == 0
