"""Differential test: the controller's slot judge against the
observation-fold oracle.

``TTPController._judge_completed_slot`` judges straight off the raw
mailbox of the two replicated channels.  The oracle below is the
straightforward reading of the protocol rules: fold the mailbox into one
:class:`FrameObservation` per channel (``_fold_mailbox``) and apply the
frame-correctness, application-data, deferred-mode, acknowledgment and
membership rules observation by observation.  Both must reach the same
verdict and leave the controller in the same state, on the product
controller and on the test-side :class:`WireLevelController` (whose judge
first replaces each channel's sole transmission by what it decodes from
the bits, and whose fold decodes and CRC-checks each channel's bits).
The inputs are random mailboxes (0-3 transmissions per channel, corrupted
copies, signal shapes inside and outside the receiver tolerance) carrying
C-states whose memberships range over slots 1..64, across the 16-bit
boundaries of the wire field.  Half of them carry one
shared transmission on both channels, the way the star forwards a frame,
with independently drawn corruption flags: the judge reuses channel 0's
verdict for such a replica only when both copies are equally corrupted.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.channel import Transmission
from repro.network.signal import SignalShape
from repro.obs import events as ev
from repro.sim.engine import Simulator
from repro.ttp.acknowledgment import AckOutcome
from repro.ttp.controller import (ControllerConfig, ControllerStateName,
                                  FreezeReason, TTPController)
from repro.ttp.cstate import CState
from repro.ttp.frames import SILENCE, IFrame, NFrame, XFrame
from repro.ttp.medl import Medl
from tests.ttp.wire_codec import WireLevelController

SLOTS = 64
NAMES = [f"N{index}" for index in range(1, SLOTS + 1)]
MEDL = Medl.uniform(NAMES)
#: Slots at and around the 16-bit field boundaries, the wire ceiling.
EDGE_SLOTS = (1, 15, 16, 17, 31, 32, 33, 47, 48, 49, 63, 64)

slot_ids = st.one_of(st.sampled_from(EDGE_SLOTS), st.integers(1, SLOTS))
memberships = st.frozensets(slot_ids, max_size=SLOTS)


class StubTopology:
    """Just enough topology to construct a controller."""

    def attach_receiver(self, callback):
        pass

    def send(self, source, frame, duration, shape=None):
        pass

    def node_activated(self, name, round_start):
        pass


class EventLog:
    def __init__(self):
        self.events = []

    def emit(self, event):
        self.events.append(event)


@st.composite
def judge_inputs(draw):
    receiver_members = draw(memberships)
    position = draw(slot_ids)
    global_time = draw(st.integers(0, (1 << 16) - 1))
    agreeing = CState(global_time=global_time, medl_position=position,
                      membership=receiver_members | {position})

    def frame_cstate():
        kind = draw(st.sampled_from(
            ("agree", "agree", "members", "time", "position")))
        dmc_mode = draw(st.integers(0, 2))
        if kind == "agree":
            membership = agreeing.membership
        elif kind == "members":
            membership = draw(memberships)
        else:
            membership = agreeing.membership
        time = global_time
        pos = position
        if kind == "time":
            time = (global_time + draw(st.integers(1, 3))) % (1 << 16)
        elif kind == "position":
            pos = position % SLOTS + 1
        return CState(global_time=time, medl_position=pos,
                      membership=membership, dmc_mode=dmc_mode)

    def transmission():
        frame_type = draw(st.sampled_from((IFrame, NFrame, XFrame)))
        cstate = frame_cstate()
        if frame_type is XFrame and SLOTS in cstate.membership:
            # The X-frame's fixed C-state field stops at slot 63.
            frame_type = IFrame
        if frame_type is XFrame:
            bits = tuple(draw(st.lists(st.integers(0, 1), max_size=4)))
            frame = XFrame(sender_slot=position, cstate=cstate,
                           data_bits=bits)
        else:
            frame = frame_type(sender_slot=position, cstate=cstate)
        shape = SignalShape(
            level=draw(st.sampled_from((1.0, 0.6, 0.5, 0.4, 0.0))),
            timing_offset=draw(st.sampled_from(
                (0.0, 0.5, -1.0, 1.0, 1.5, -2.0))))
        return Transmission(frame=frame, source="X", start_time=0.0,
                            duration=1.0, shape=shape)

    mailbox = []
    if draw(st.booleans()):
        # The star forwards one transmission object on both channels;
        # each channel corrupts its copy independently.
        shared = transmission()
        mailbox.append((0, shared, draw(st.booleans())))
        mailbox.append((1, shared, draw(st.booleans())))
        extra = 1
    else:
        extra = 3
    for channel in (0, 1):
        for _ in range(draw(st.integers(0, extra))):
            mailbox.append((channel, transmission(), draw(st.booleans())))
    mailbox = draw(st.permutations(mailbox))
    return {
        "members": receiver_members,
        "position": position,
        "global_time": global_time,
        "mailbox": mailbox,
        "strict": draw(st.booleans()),
        "wire": draw(st.booleans()),
        "ack_armed": draw(st.booleans()),
        "pending_mode": draw(st.sampled_from((None, 0))),
    }


def frame_correct(controller, observation):
    """Valid, agreeing on time and position, and (strict mode) carrying
    the receiver's view with the sender's bit set."""
    tolerance = controller.tolerance
    if not observation.is_valid(tolerance.window, tolerance.threshold):
        return False
    frame_cstate = observation.frame.cstate
    if (frame_cstate.global_time != controller._global_time
            or frame_cstate.medl_position != controller._position):
        return False
    if controller.config.strict_membership_agreement:
        return (frame_cstate.membership_word()
                == controller.view.word | (1 << frame_cstate.medl_position))
    return True


def oracle_judge(controller, mailbox):
    """The slot judge over folded per-channel observations."""
    observations = controller._fold_mailbox(mailbox)
    obs_list = [observations.get(index, SILENCE) for index in (0, 1)]
    correct = [observation for observation in obs_list
               if frame_correct(controller, observation)]
    all_null = all(observation.is_null() for observation in obs_list)
    if correct:
        # One delivery and one mode latch per slot: the first correct
        # frame speaks for both replicas.
        frame = correct[0].frame
        if isinstance(frame, XFrame) and frame.data_bits:
            controller.cni.deliver(controller.slot, frame.data_bits,
                                   controller._global_time)
        wire_value = frame.cstate.dmc_mode
        if wire_value and controller.modes.valid_mode(wire_value - 1):
            if wire_value - 1 != controller.pending_mode:
                controller.pending_mode = wire_value - 1
                controller._emit(ev.DmcLatched, mode=wire_value - 1)
            controller._dmc_announced = True
    if controller.config.explicit_acknowledgment and controller.ack.armed:
        tolerance = controller.tolerance
        witnesses = [
            observation.frame for observation in obs_list
            if observation.is_valid(tolerance.window, tolerance.threshold)
            and observation.frame.cstate.global_time == controller._global_time
            and observation.frame.cstate.medl_position == controller._position]
        if witnesses:
            outcome = controller.ack.observe_successor(
                witnesses[0].cstate.membership)
            if outcome is AckOutcome.SEND_FAULT:
                controller._emit(ev.AckFailure, slot=controller.slot)
                controller._freeze(FreezeReason.ACK_FAILURE)
                return
    controller.view.apply_judgment(controller.slot, bool(correct), all_null)
    if not all_null:
        controller._judged_since_test += 1
        if not correct:
            frame = next((observation.frame for observation in obs_list
                          if observation.frame is not None), None)
            controller._emit(
                ev.SlotFailed, slot=controller.slot,
                expected_time=controller._global_time,
                expected_pos=controller._position,
                frame_time=None if frame is None else frame.cstate.global_time,
                frame_pos=None if frame is None else frame.cstate.medl_position,
                frame_members=None if frame is None
                else sorted(frame.cstate.membership),
                my_members=sorted(controller.view.membership_set()))


def product_judge(controller, mailbox):
    controller._judge_completed_slot(mailbox)


def judged_controller(inputs, judge):
    log = EventLog()
    controller_type = WireLevelController if inputs["wire"] else TTPController
    controller = controller_type(
        Simulator(), "N2", MEDL, StubTopology(), monitor=log,
        config=ControllerConfig(
            strict_membership_agreement=inputs["strict"]))
    controller.state = ControllerStateName.PASSIVE
    controller.slot = inputs["position"]
    controller.cstate = CState(global_time=inputs["global_time"],
                               medl_position=inputs["position"],
                               membership=inputs["members"])
    controller.view.assign(inputs["members"])
    controller.pending_mode = inputs["pending_mode"]
    if inputs["ack_armed"]:
        controller.ack.arm()
    judge(controller, list(inputs["mailbox"]))
    return controller, log.events


def observable(controller, events):
    view = controller.view
    return {
        "word": view.word,
        "counters": view.counters,
        "judged": view.judged,
        "judged_failed": view.judged_failed,
        "judged_since_test": controller._judged_since_test,
        "pending_mode": controller.pending_mode,
        "dmc_announced": controller._dmc_announced,
        "state": controller.state,
        "ack": (controller.ack.armed, controller.ack.denials),
        "deliveries": controller.cni.deliveries,
        "events": events,
    }


@settings(max_examples=400, deadline=None)
@given(judge_inputs())
def test_slot_judge_matches_observation_oracle(inputs):
    judged = observable(*judged_controller(inputs, product_judge))
    oracle = observable(*judged_controller(inputs, oracle_judge))
    assert judged == oracle
