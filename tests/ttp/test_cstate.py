"""Tests for the controller state (C-state)."""

import pickle
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from repro.ttp.cstate import CState
from tests.ttp.wire_codec import (cstate_as_tuple, cstate_bits, cstate_digest,
                                  cstate_from_fields, cstates_agree)


def test_default_cstate():
    cstate = CState()
    assert cstate.global_time == 0
    assert cstate.medl_position == 1
    assert cstate.membership == frozenset()


def test_field_range_validation():
    with pytest.raises(ValueError):
        CState(global_time=1 << 16)
    with pytest.raises(ValueError):
        CState(medl_position=1 << 16)
    # Slot ids are 1-based (bit 0 reserved), so the full 64-slot cluster
    # legitimately sets bit 64; only 65+ is out of range.
    CState(membership=frozenset({64}))
    with pytest.raises(ValueError):
        CState(membership=frozenset({65}))
    with pytest.raises(ValueError):
        CState(membership=frozenset({-1}))


def test_membership_field_grows_in_16_bit_steps():
    # The paper's minimum configuration keeps the exact 16-bit field...
    assert CState().membership_field_bits() == 16
    assert CState(membership=frozenset({0, 15})).membership_field_bits() == 16
    # ...and larger generated clusters pad to the next 16-bit multiple.
    assert CState(membership=frozenset({16})).membership_field_bits() == 32
    assert CState(membership=frozenset({31})).membership_field_bits() == 32
    assert CState(membership=frozenset({32})).membership_field_bits() == 48
    assert CState(membership=frozenset({63})).membership_field_bits() == 64


def test_wide_membership_roundtrip():
    original = CState(global_time=7, medl_position=20,
                      membership=frozenset({0, 17, 40, 63}))
    rebuilt = cstate_from_fields(original.global_time, original.medl_position,
                                 original.membership_word())
    assert cstates_agree(rebuilt, original)
    assert len(cstate_bits(original)) == 16 + 16 + 64


def test_membership_word_packing():
    cstate = CState(membership=frozenset({0, 2, 5}))
    assert cstate.membership_word() == 0b100101


def test_from_fields_roundtrip():
    original = CState(global_time=1234, medl_position=3,
                      membership=frozenset({1, 2, 4}))
    rebuilt = cstate_from_fields(original.global_time, original.medl_position,
                                 original.membership_word())
    assert cstates_agree(rebuilt, original)


def test_to_bits_width():
    assert len(cstate_bits(CState())) == 16 + 16 + 16


def test_digest_differs_with_state():
    base = CState(global_time=10, medl_position=2)
    other = CState(global_time=11, medl_position=2)
    assert cstate_digest(base) != cstate_digest(other)


def test_advanced_increments_time_and_position():
    cstate = CState(global_time=5, medl_position=2)
    advanced = cstate.advanced(slots_in_round=4)
    assert advanced.global_time == 6
    assert advanced.medl_position == 3


def test_advanced_wraps_position():
    cstate = CState(global_time=0, medl_position=4)
    assert cstate.advanced(slots_in_round=4).medl_position == 1


def test_advanced_wraps_global_time():
    cstate = CState(global_time=(1 << 16) - 1)
    assert cstate.advanced(slots_in_round=4).global_time == 0


def test_agrees_with_requires_all_fields():
    base = CState(global_time=1, medl_position=2, membership=frozenset({1}))
    assert cstates_agree(base, CState(global_time=1, medl_position=2,
                                      membership=frozenset({1})))
    assert not cstates_agree(base, CState(global_time=2, medl_position=2,
                                          membership=frozenset({1})))
    assert not cstates_agree(base, CState(global_time=1, medl_position=3,
                                          membership=frozenset({1})))
    assert not cstates_agree(base, CState(global_time=1, medl_position=2))


def test_as_tuple_hashable_summary():
    cstate = CState(global_time=7, medl_position=2, membership=frozenset({0}))
    assert cstate_as_tuple(cstate) == (7, 2, 1, 0)


def test_str_rendering():
    text = str(CState(global_time=3, medl_position=1, membership=frozenset({1, 2})))
    assert "t=3" in text and "1,2" in text


@given(st.integers(min_value=0, max_value=(1 << 16) - 1),
       st.integers(min_value=1, max_value=100),
       st.sets(st.integers(min_value=0, max_value=15), max_size=16))
def test_roundtrip_wire_fields(global_time, position, members):
    original = CState(global_time=global_time, medl_position=position,
                      membership=frozenset(members))
    rebuilt = cstate_from_fields(global_time, position, original.membership_word())
    assert rebuilt == original


@given(st.integers(min_value=2, max_value=16))
def test_advancing_full_round_returns_position(slots):
    cstate = CState(global_time=0, medl_position=1)
    for _ in range(slots):
        cstate = cstate.advanced(slots_in_round=slots)
    assert cstate.medl_position == 1
    assert cstate.global_time == slots


# -- membership word memo -------------------------------------------------------------

memberships = st.frozensets(st.integers(min_value=1, max_value=64))


def folded_word(membership):
    word = 0
    for member in membership:
        word |= 1 << member
    return word


@given(memberships)
def test_membership_word_memo_equals_fold(members):
    cstate = CState(global_time=7, medl_position=3, membership=members)
    assert cstate.membership_word() == folded_word(members)
    # The second call is served by the memo and still agrees.
    assert cstate.membership_word() == folded_word(members)


@given(memberships)
def test_membership_word_memo_does_not_affect_eq_or_hash(members):
    memoized = CState(global_time=7, medl_position=3, membership=members)
    memoized.membership_word()
    fresh = CState(global_time=7, medl_position=3, membership=members)
    assert memoized == fresh
    assert hash(memoized) == hash(fresh)
    assert len({memoized, fresh}) == 1


@given(memberships, memberships)
def test_replace_recomputes_membership_word(members, other):
    cstate = CState(global_time=7, medl_position=3, membership=members)
    cstate.membership_word()
    replaced = replace(cstate, membership=other)
    assert replaced.membership_word() == folded_word(other)
    assert replace(cstate, global_time=8).membership_word() == folded_word(members)


@given(memberships, st.booleans())
def test_pickle_round_trip_keeps_membership_word(members, memoized):
    cstate = CState(global_time=7, medl_position=3, membership=members)
    if memoized:
        cstate.membership_word()
    restored = pickle.loads(pickle.dumps(cstate))
    assert restored == cstate
    assert restored.membership_word() == folded_word(members)


def test_unchecked_seeds_the_memo():
    seeded = CState._unchecked(0, 1, frozenset({2, 33}), 0,
                               folded_word({2, 33}))
    assert seeded.membership_word() == folded_word({2, 33})
    assert seeded == CState(membership=frozenset({2, 33}))
