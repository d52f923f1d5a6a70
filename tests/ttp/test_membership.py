"""Tests for the group-membership bookkeeping."""

from dataclasses import dataclass, replace
from typing import List

import pytest

from repro.ttp.cstate import CState
from repro.ttp.frames import FrameObservation, IFrame
from repro.ttp.membership import MembershipView
from tests.ttp.test_frames import is_correct


@dataclass
class SlotJudgment:
    """A receiver's verdict about one slot's traffic."""

    slot_id: int
    correct: bool
    null: bool

    @property
    def failed(self) -> bool:
        return not self.correct and not self.null


def judge_slot(view: MembershipView, slot_id: int,
               observations: List[FrameObservation],
               receiver_cstate: CState) -> SlotJudgment:
    """Judge one slot from the observations on all channels.

    TTP/C accepts a slot if *any* channel carried a correct frame
    (channels are replicas); the slot is null only if every channel was
    silent.  The judgment updates membership and clique counters through
    :meth:`MembershipView.apply_judgment`, as the controller's slot judge
    does.
    """
    any_correct = any(
        is_correct(observation, receiver_cstate) for observation in observations)
    all_null = all(observation.is_null() for observation in observations)
    view.apply_judgment(slot_id, any_correct, all_null)
    return SlotJudgment(slot_id=slot_id, correct=any_correct, null=all_null)


def make_view():
    return MembershipView(own_slot=1)


def failed_ratio(view: MembershipView) -> float:
    """Fraction of the view's judged slots that failed (0 before any)."""
    if not view.judged:
        return 0.0
    return view.judged_failed / view.judged


def cstate(time=0, position=1, members=()):
    return CState(global_time=time, medl_position=position,
                  membership=frozenset(members))


def test_judgment_failed_flag():
    assert SlotJudgment(slot_id=1, correct=False, null=False).failed
    assert not SlotJudgment(slot_id=1, correct=True, null=False).failed
    assert not SlotJudgment(slot_id=1, correct=False, null=True).failed


def test_correct_frame_adds_member_and_agreed():
    view = make_view()
    receiver = cstate(time=5, position=2)
    frame = IFrame(sender_slot=2, cstate=receiver)
    judgment = judge_slot(view, 2, [FrameObservation(frame=frame)], receiver)
    assert judgment.correct
    assert view.is_member(2)
    assert view.counters.agreed == 1


def test_incorrect_frame_removes_member_and_fails():
    view = make_view()
    view.assign({2})
    receiver = cstate(time=5, position=2)
    wrong = IFrame(sender_slot=2, cstate=cstate(time=99, position=2))
    judgment = judge_slot(view, 2, [FrameObservation(frame=wrong)], receiver)
    assert judgment.failed
    assert not view.is_member(2)
    assert view.counters.failed == 1


def test_silent_slot_removes_member_without_counting():
    view = make_view()
    view.assign({3})
    judgment = judge_slot(view, 3, [FrameObservation(frame=None),
                                    FrameObservation(frame=None)], cstate())
    assert judgment.null
    assert not view.is_member(3)
    assert view.counters.total == 0


def test_any_channel_correct_wins():
    """Channels are replicas: one corrupted copy does not fail the slot."""
    view = make_view()
    receiver = cstate(time=1, position=2)
    good = FrameObservation(frame=IFrame(sender_slot=2, cstate=receiver))
    bad = replace(good, corrupted=True)
    judgment = judge_slot(view, 2, [bad, good], receiver)
    assert judgment.correct
    assert view.counters.agreed == 1


def test_own_send_counts_agreed_and_self_membership():
    view = make_view()
    view.record_own_send()
    assert view.is_member(1)
    assert view.counters.agreed == 1


def test_reset_round_clears_counters_not_members():
    view = make_view()
    view.record_own_send()
    view.reset_round()
    assert view.counters.total == 0
    assert view.is_member(1)


def test_adopt_replaces_membership():
    view = make_view()
    view.assign({1, 2})
    view.adopt(cstate(members=(3, 4)))
    assert view.membership_set() == frozenset({3, 4})


def test_membership_set_is_immutable_snapshot():
    view = make_view()
    view.apply_judgment(2, True, False)
    snapshot = view.membership_set()
    view.apply_judgment(3, True, False)
    assert snapshot == frozenset({2})


def test_membership_set_tracks_every_change():
    """The cached snapshot never outlives a membership change."""
    view = make_view()
    view.apply_judgment(2, True, False)
    assert view.membership_set() == frozenset({2})
    view.apply_judgment(3, True, False)
    assert view.membership_set() == frozenset({2, 3})
    view.record_own_send()
    assert view.membership_set() == frozenset({1, 2, 3})
    view.apply_judgment(2, False, True)
    assert view.membership_set() == frozenset({1, 3})
    view.assign({64})
    assert view.membership_set() == frozenset({64})
    view.adopt(cstate(members=(4, 17)))
    assert view.membership_set() == frozenset({4, 17})
    assert view.word == (1 << 4) | (1 << 17)


def test_membership_is_not_a_mutable_set():
    """Membership changes only through the view's methods: a public
    mutable set could be changed in place behind the cached snapshot,
    leaving ``membership_set()`` stale."""
    view = make_view()
    assert not hasattr(view, "members")
    with pytest.raises(AttributeError):
        view.members = {2}


def test_failed_ratio():
    view = make_view()
    view.apply_judgment(2, True, False)
    view.apply_judgment(3, False, False)
    view.apply_judgment(4, False, True)
    assert failed_ratio(view) == 1 / 3


def test_failed_ratio_empty_history():
    assert failed_ratio(make_view()) == 0.0


def test_history_records_every_judgment():
    view = make_view()
    verdicts = [(2, True, False), (3, False, False), (4, False, True),
                (3, True, False), (2, False, False)]
    for count, (slot_id, correct, null) in enumerate(verdicts, start=1):
        view.apply_judgment(slot_id, correct, null)
        assert view.judged == count
    assert view.judged_failed == 2
    assert failed_ratio(view) == 2 / 5
    # Judgments apply in order: slot 3 failed, then was re-added; slot 2
    # was added first and removed last.
    assert view.membership_set() == frozenset({3})
