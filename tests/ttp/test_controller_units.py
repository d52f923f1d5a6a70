"""Focused unit tests for controller internals.

The integration suites exercise these paths end-to-end; the unit tests
here pin the individual rules (frame correctness, DMC wire value, slot
judgment bookkeeping) against hand-built inputs.
"""

import pytest

from repro.network.channel import Transmission
from repro.network.signal import ReceiverTolerance, SignalShape
from repro.sim.engine import Simulator
from repro.ttp.controller import (ControllerConfig, ControllerStateName,
                                  TTPController)
from repro.ttp.cstate import CState
from repro.ttp.frames import IFrame
from repro.ttp.medl import Medl


class DummyTopology:
    """Just enough topology for a controller to be constructed."""

    def __init__(self):
        self.sent = []

    def attach_receiver(self, callback):
        self.receiver = callback

    def send(self, source, frame, duration, shape=None):
        self.sent.append((source, frame, duration))

    def node_activated(self, name, round_start):
        pass


def make_controller(**config_kwargs):
    sim = Simulator()
    medl = Medl.uniform(["A", "B", "C", "D"])
    topology = DummyTopology()
    controller = TTPController(sim, "B", medl, topology,
                               config=ControllerConfig(**config_kwargs))
    return controller, topology


def judged_at_slot_3(controller, members, frame_cstate, corrupted=False,
                     level=1.0):
    """Judge slot 3 at global time 5 on a one-entry mailbox: one I-frame
    on channel 0.  Returns the membership view."""
    controller.state = ControllerStateName.PASSIVE
    controller.slot = 3
    controller.cstate = CState(global_time=5, medl_position=3)
    controller.view.assign(members)
    frame = IFrame(sender_slot=frame_cstate.medl_position, cstate=frame_cstate)
    transmission = Transmission(frame=frame, source="C", start_time=0.0,
                                duration=1.0, shape=SignalShape(level=level))
    controller._judge_completed_slot([(0, transmission, corrupted)])
    return controller.view


# -- frame correctness ----------------------------------------------------------------


def test_frame_correct_requires_time_and_position():
    good = CState(global_time=5, medl_position=3,
                  membership=frozenset({1, 2, 3}))
    view = judged_at_slot_3(make_controller()[0], {1, 2}, good)
    assert view.judged_failed == 0
    assert view.word == 0b1110
    wrong_time = CState(global_time=6, medl_position=3,
                        membership=frozenset({1, 2, 3}))
    view = judged_at_slot_3(make_controller()[0], {1, 2, 3}, wrong_time)
    assert view.judged_failed == 1
    assert view.word == 0b0110
    wrong_pos = CState(global_time=5, medl_position=2,
                       membership=frozenset({1, 2, 3}))
    view = judged_at_slot_3(make_controller()[0], {1, 2, 3}, wrong_pos)
    assert view.judged_failed == 1
    assert view.word == 0b0110


def test_frame_correct_sender_inclusion_rule():
    """Expected membership = receiver's view with the sender's bit set."""
    without_self = CState(global_time=5, medl_position=3,
                          membership=frozenset({1, 2}))
    view = judged_at_slot_3(make_controller()[0], {1, 2}, without_self)
    assert view.judged_failed == 1
    assert view.word == 0b0110


def test_frame_correct_loose_mode_ignores_membership():
    controller, _ = make_controller(strict_membership_agreement=False)
    odd_membership = CState(global_time=5, medl_position=3,
                            membership=frozenset({9}))
    view = judged_at_slot_3(controller, {1, 2}, odd_membership)
    assert view.judged_failed == 0
    assert view.word == 0b1110


def test_frame_correct_rejects_invalid_signal():
    good = CState(global_time=5, medl_position=3, membership=frozenset({3}))
    view = judged_at_slot_3(make_controller()[0], (), good, corrupted=True)
    assert view.judged_failed == 1
    assert view.word == 0
    view = judged_at_slot_3(make_controller()[0], (), good, level=0.1)
    assert view.judged_failed == 1
    assert view.word == 0


def test_frame_correct_respects_receiver_tolerance():
    sim = Simulator()
    medl = Medl.uniform(["A", "B", "C", "D"])
    good = CState(global_time=5, medl_position=3, membership=frozenset({3}))
    strict = TTPController(sim, "B", medl, DummyTopology(),
                           tolerance=ReceiverTolerance(threshold=0.9))
    view = judged_at_slot_3(strict, (), good, level=0.8)
    assert view.judged_failed == 1
    assert view.word == 0
    lenient = TTPController(sim, "B", medl, DummyTopology())
    view = judged_at_slot_3(lenient, (), good, level=0.8)
    assert view.judged_failed == 0
    assert view.word == 0b1000


# -- lazy C-state -------------------------------------------------------------------


def eager_advance(controller):
    """Advance one slot and return the C-state an eager build would have
    produced at that moment."""
    before = controller.cstate
    pending = controller.pending_mode
    position = before.medl_position % controller.medl.slot_count + 1
    expected = CState(global_time=(before.global_time + 1) % (1 << 16),
                      medl_position=position,
                      membership=controller.view.membership_set(),
                      dmc_mode=0 if pending is None else pending + 1)
    controller._advance_slot()
    return expected


def integrated_controller(global_time, position, members):
    controller, _ = make_controller()
    controller.state = ControllerStateName.PASSIVE
    controller.slot = position
    controller.cstate = CState(global_time=global_time,
                               medl_position=position,
                               membership=frozenset(members))
    controller.view.assign(members)
    return controller


def assert_same_cstate(lazy, eager):
    assert lazy == eager
    assert lazy.membership_word() == eager.membership_word()


def test_lazy_cstate_global_time_wraps():
    controller = integrated_controller((1 << 16) - 1, 3, {1, 3})
    expected = eager_advance(controller)
    assert expected.global_time == 0
    assert_same_cstate(controller.cstate, expected)


def test_lazy_cstate_position_wraps_at_slot_count():
    controller = integrated_controller(10, 4, {1, 2, 4})
    expected = eager_advance(controller)
    assert expected.medl_position == 1
    assert_same_cstate(controller.cstate, expected)
    assert controller.slot == 1


def test_lazy_cstate_dmc_follows_pending_mode():
    controller = integrated_controller(10, 3, {3})
    for pending, wire in ((None, 0), (0, 1), (2, 3)):
        controller.pending_mode = pending
        expected = eager_advance(controller)
        assert expected.dmc_mode == wire
        assert_same_cstate(controller.cstate, expected)


def test_lazy_cstate_is_cached_until_the_next_advance():
    controller = integrated_controller(10, 3, {1, 3})
    controller._advance_slot()
    snapshot = controller.cstate
    assert controller.cstate is snapshot
    controller._advance_slot()
    assert controller.cstate is not snapshot
    assert controller.cstate.global_time == 12


def test_judging_a_later_slot_keeps_the_snapshot_membership():
    controller = integrated_controller(10, 3, {1, 3, 4})
    expected = eager_advance(controller)  # now judging slot 4
    members = expected.membership
    word = expected.membership_word()
    # Slot 4 stays silent: the judge drops it from the view, but the
    # C-state snapshot still carries the advance-time membership.
    controller._judge_completed_slot([])
    assert not controller.view.is_member(4)
    assert controller.cstate.membership == members
    assert controller.cstate.membership_word() == word
    assert_same_cstate(controller.cstate, expected)


def shared_mailbox(cstate, bad0=False, bad1=False):
    frame = IFrame(sender_slot=cstate.medl_position, cstate=cstate)
    transmission = Transmission(frame=frame, source="C", start_time=0.0,
                                duration=1.0)
    return [(0, transmission, bad0), (1, transmission, bad1)]


def test_fast_judge_compares_against_an_assigned_cstate():
    controller = integrated_controller(10, 3, {1, 2})
    controller._advance_slot()
    # The assignment replaces the advanced C-state wholesale.
    controller.cstate = CState(global_time=5, medl_position=3)
    controller.slot = 3
    good = CState(global_time=5, medl_position=3,
                  membership=frozenset({1, 2, 3}))
    controller._judge_completed_slot(shared_mailbox(good))
    assert controller.view.is_member(3)
    assert controller.view.counters.agreed == 1

    stale = CState(global_time=11, medl_position=3,
                   membership=frozenset({1, 2, 3}))
    controller._judge_completed_slot(shared_mailbox(stale))
    assert not controller.view.is_member(3)
    assert controller.view.counters.failed == 1


def test_shared_replica_with_one_clean_copy_is_correct():
    """A transmission forwarded on both channels is judged per copy when
    only one copy is corrupted."""
    good = CState(global_time=5, medl_position=3,
                  membership=frozenset({1, 2, 3}))
    for bad0, bad1 in ((True, False), (False, True)):
        controller = integrated_controller(5, 3, {1, 2})
        controller._judge_completed_slot(shared_mailbox(good, bad0, bad1))
        assert controller.view.counters.agreed == 1
    controller = integrated_controller(5, 3, {1, 2})
    controller._judge_completed_slot(shared_mailbox(good, True, True))
    assert controller.view.counters.failed == 1


# -- DMC wire encoding ---------------------------------------------------------------


def test_dmc_wire_value_encoding():
    """The C-state's DMC field is the pending mode index + 1, 0 = none, so
    a request for mode 0 is expressible on the wire."""
    controller = integrated_controller(10, 3, {3})
    for pending, wire in ((None, 0), (0, 1), (3, 4)):
        controller.pending_mode = pending
        controller._advance_slot()
        assert controller.cstate.dmc_mode == wire


# -- state accessors ------------------------------------------------------------------


def test_initial_state_and_slot():
    controller, _ = make_controller()
    assert controller.own_slot == 2
    assert not controller.integrated
    assert controller.view.membership_set() == frozenset()


def test_request_mode_change_without_modes_rejected():
    controller, _ = make_controller()
    with pytest.raises(ValueError):
        controller.request_mode_change(1)


def test_oversized_frame_guard():
    controller, _ = make_controller(slot_duration=50.0)
    frame = IFrame(sender_slot=2, cstate=CState(medl_position=2))
    with pytest.raises(ValueError):
        controller._transmit(frame)  # 76 bits > 50-bit-time slot
