"""Focused unit tests for controller internals.

The integration suites exercise these paths end-to-end; the unit tests
here pin the individual rules (frame correctness, DMC wire value, slot
judgment bookkeeping) against hand-built inputs.
"""

import pytest

from repro.network.signal import ReceiverTolerance
from repro.sim.engine import Simulator
from repro.ttp.controller import ControllerConfig, TTPController
from repro.ttp.cstate import CState
from repro.ttp.frames import FrameObservation, IFrame
from repro.ttp.medl import Medl


class DummyTopology:
    """Just enough topology for a controller to be constructed."""

    def __init__(self):
        self.channels = [object(), object()]
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


def observation(cstate, **kwargs):
    return FrameObservation(frame=IFrame(sender_slot=cstate.medl_position,
                                         cstate=cstate), **kwargs)


# -- _frame_correct -----------------------------------------------------------------


def test_frame_correct_requires_time_and_position():
    controller, _ = make_controller()
    controller.cstate = CState(global_time=5, medl_position=3)
    controller.view.assign({1, 2})
    good = CState(global_time=5, medl_position=3,
                  membership=frozenset({1, 2, 3}))
    assert controller._frame_correct(observation(good))
    wrong_time = CState(global_time=6, medl_position=3,
                        membership=frozenset({1, 2, 3}))
    assert not controller._frame_correct(observation(wrong_time))
    wrong_pos = CState(global_time=5, medl_position=2,
                       membership=frozenset({1, 2, 3}))
    assert not controller._frame_correct(observation(wrong_pos))


def test_frame_correct_sender_inclusion_rule():
    """Expected membership = receiver's view with the sender's bit set."""
    controller, _ = make_controller()
    controller.cstate = CState(global_time=5, medl_position=3)
    controller.view.assign({1, 2})
    without_self = CState(global_time=5, medl_position=3,
                          membership=frozenset({1, 2}))
    assert not controller._frame_correct(observation(without_self))


def test_frame_correct_loose_mode_ignores_membership():
    controller, _ = make_controller(strict_membership_agreement=False)
    controller.cstate = CState(global_time=5, medl_position=3)
    controller.view.assign({1, 2})
    odd_membership = CState(global_time=5, medl_position=3,
                            membership=frozenset({9}))
    assert controller._frame_correct(observation(odd_membership))


def test_frame_correct_rejects_invalid_signal():
    controller, _ = make_controller()
    controller.cstate = CState(global_time=5, medl_position=3)
    controller.view.assign(())
    good = CState(global_time=5, medl_position=3, membership=frozenset({3}))
    assert not controller._frame_correct(observation(good, corrupted=True))
    assert not controller._frame_correct(observation(good, signal_level=0.1))


def test_frame_correct_respects_receiver_tolerance():
    sim = Simulator()
    medl = Medl.uniform(["A", "B", "C", "D"])
    topology = DummyTopology()
    strict = TTPController(sim, "B", medl, topology,
                           tolerance=ReceiverTolerance(threshold=0.9))
    strict.cstate = CState(global_time=5, medl_position=3)
    strict.view.assign(())
    good = CState(global_time=5, medl_position=3, membership=frozenset({3}))
    marginal = observation(good, signal_level=0.8)
    assert not strict._frame_correct(marginal)


# -- DMC wire encoding ---------------------------------------------------------------


def test_dmc_wire_value_encoding():
    controller, _ = make_controller()
    assert controller._dmc_wire_value() == 0
    controller.pending_mode = 0
    assert controller._dmc_wire_value() == 1  # mode 0 is expressible
    controller.pending_mode = 3
    assert controller._dmc_wire_value() == 4


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
