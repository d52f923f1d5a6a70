"""Per-node transition constraints (paper Section 4.3).

Each node's local state is a :class:`NodeLocal` tuple; :func:`node_step`
returns every allowed next local state given the frames on the two
channels -- the direct transcription of the paper's constraints for the
freeze, init, listen, cold_start, active, and passive states, plus the
bookkeeping the paper leaves implicit (clique-counter updates).
It is the composition of :func:`node_observation` (the small part of the
channels a step reads) and :func:`node_step_observed` (the step given that
observation), so callers can memoize steps per observation.

Counter semantics (derived in DESIGN.md from the paper's results and both
counterexample narratives):

* only frames carrying a C-state are judged: a ``c_state`` frame whose
  claimed slot position matches the receiver's slot counter is *agreed*,
  one with a different position is *failed* (the abstraction of "C-state
  does not match the internal C-state of the receiving node");
* cold-start frames serve startup only and are never counted -- this is
  required for the paper's own trace 1, where node A keeps re-sending
  cold-start frames (test verdict "resend") even though a replayed
  cold-start frame appeared mid-round;
* structurally invalid frames (noise, collisions) provide no evidence
  either way -- required for the paper's PASS verdicts, since a coupler
  stuck in the ``bad_frame`` mode noise-fills silent startup slots and
  would otherwise clique-freeze every early integrator;
* a node's own send credits one agreed slot (the paper's cold-start test
  reads ``agreed <= 1`` as "nothing heard but my own frame");
* counters reset at each round's clique test.

Unused variables are canonicalized (slot/timeout 0, flags False) so that
semantically identical states collapse in the explicit-state search.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple, Union

from repro.model.config import ModelConfig
from repro.model.coupler_model import (
    KIND_C_STATE,
    KIND_COLD_START,
    ChannelContent,
)

# Node protocol states.  ``freeze_clique`` is the protocol-forced freeze
# (clique-avoidance error) -- distinguished from the host-level ``freeze``
# so the checked property can target forced freezes only.
ST_FREEZE = "freeze"
ST_FREEZE_CLIQUE = "freeze_clique"
ST_INIT = "init"
ST_LISTEN = "listen"
ST_COLD_START = "cold_start"
ST_ACTIVE = "active"
ST_PASSIVE = "passive"
ST_AWAIT = "await"
ST_TEST = "test"

INTEGRATED_STATES = (ST_ACTIVE, ST_PASSIVE)
SLOTTED_STATES = (ST_COLD_START, ST_ACTIVE, ST_PASSIVE)

#: What one node's step reads of the channels (see :func:`node_observation`):
#: a slot verdict, or a listening node's ``(targets, saw_cold_start)``.
Observation = Union[str, Tuple[Tuple[int, ...], bool]]


class NodeLocal(NamedTuple):
    """One node's state variables (canonicalized)."""

    state: str
    slot: int
    big_bang: bool
    timeout: int
    agreed: int
    failed: int


def initial_local() -> NodeLocal:
    """All nodes start in the freeze state (paper Section 4.3)."""
    return NodeLocal(state=ST_FREEZE, slot=0, big_bang=False,
                     timeout=0, agreed=0, failed=0)


def frame_sent(local: NodeLocal, node_id: int) -> str:
    """Frame the node puts on both channels this slot (paper's
    ``frame_sent``): ``c_state`` when active in its own slot, ``cold_start``
    when cold-starting in its own slot, silence otherwise."""
    if local.state == ST_ACTIVE and local.slot == node_id:
        return KIND_C_STATE
    if local.state == ST_COLD_START and local.slot == node_id:
        return KIND_COLD_START
    return "none"


def _next_slot(slot: int, slots: int) -> int:
    return 1 if slot >= slots else slot + 1


def _judge(slot: int, channels: Tuple[ChannelContent, ChannelContent]) -> str:
    """Clique-counter verdict for one observed slot: 'agreed', 'failed',
    or 'none' (see module docstring for the rationale)."""
    mismatch = False
    for content in channels:
        if content.kind == KIND_C_STATE and content.frame_id != 0:
            if content.frame_id == slot:
                return "agreed"
            mismatch = True
    return "failed" if mismatch else "none"


def _integration_targets(config: ModelConfig, local: NodeLocal,
                         channels: Tuple[ChannelContent, ChannelContent]) -> List[int]:
    """Slot ids this listening node may integrate on.

    C-state frames integrate immediately; cold-start frames only once the
    big-bang requirement is met (a first cold-start frame was already
    seen).  When the two channels offer different frames the node may
    integrate on either (paper Section 2.2: "nodes may try to integrate on
    either channel").
    """
    targets: List[int] = []
    for content in channels:
        if content.frame_id == 0:
            continue
        if content.kind == KIND_C_STATE:
            targets.append(content.frame_id)
        elif content.kind == KIND_COLD_START:
            if local.big_bang or not config.big_bang_enabled:
                targets.append(content.frame_id)
    # Deduplicate preserving order.
    unique: List[int] = []
    for target in targets:
        if target not in unique:
            unique.append(target)
    return unique


def node_observation(config: ModelConfig, node_id: int, local: NodeLocal,
                     channels: Tuple[ChannelContent, ChannelContent]
                     ) -> Optional[Observation]:
    """The part of the two channel contents that one node's step reads.

    * ``None`` in the host-managed states (freeze, init, await, test) and
      in a slotted node's own send slot -- the step ignores the channels;
    * the :func:`_judge` verdict in the other slotted-state slots;
    * ``(integration targets, saw_cold_start)`` in listen.

    The value is small and hashable, so step results can be memoized per
    ``(node, local, observation)`` instead of per channel pair: many
    channel pairs collapse onto one observation.
    """
    state = local.state
    if state == ST_LISTEN:
        saw_cold_start = any(content.kind == KIND_COLD_START
                             for content in channels)
        return (tuple(_integration_targets(config, local, channels)),
                saw_cold_start)
    if state not in SLOTTED_STATES:
        return None
    if local.slot == node_id and state in (ST_COLD_START, ST_ACTIVE):
        return None  # own send
    return _judge(local.slot, channels)


def node_step_observed(config: ModelConfig, node_id: int, local: NodeLocal,
                       observation: Optional[Observation]) -> List[NodeLocal]:
    """All allowed next local states for one node, given what it observed
    (:func:`node_observation`)."""
    state = local.state

    if state in (ST_FREEZE, ST_FREEZE_CLIQUE):
        options = [local]
        fresh = NodeLocal(ST_INIT, 0, False, 0, 0, 0)
        if state == ST_FREEZE:
            options.append(fresh)
            if config.full_host_choices:
                options.append(NodeLocal(ST_AWAIT, 0, False, 0, 0, 0))
                options.append(NodeLocal(ST_TEST, 0, False, 0, 0, 0))
        return options

    if state in (ST_AWAIT, ST_TEST):
        # Host-managed states: absorbing for the startup analysis.
        return [local]

    if state == ST_INIT:
        stay = local
        to_listen = NodeLocal(ST_LISTEN, 0, False,
                              config.listen_timeout(node_id), 0, 0)
        options = [stay, to_listen]
        if config.full_host_choices:
            options.append(NodeLocal(ST_FREEZE, 0, False, 0, 0, 0))
        return options

    if state == ST_LISTEN:
        targets, saw_cold_start = observation
        return _listen_step(config, node_id, local, targets, saw_cold_start)

    # Slot-synchronous states: cold_start / active / passive.
    return _slotted_step(config, node_id, local, observation)


def node_step(config: ModelConfig, node_id: int, local: NodeLocal,
              channels: Tuple[ChannelContent, ChannelContent]) -> List[NodeLocal]:
    """All allowed next local states for one node."""
    return node_step_observed(config, node_id, local,
                              node_observation(config, node_id, local,
                                               channels))


def _listen_step(config: ModelConfig, node_id: int, local: NodeLocal,
                 targets: Tuple[int, ...],
                 saw_cold_start: bool) -> List[NodeLocal]:
    slots = config.slots

    options: List[NodeLocal] = []
    for target in targets:
        integrated_slot = 1 if target == slots else target + 1
        options.append(NodeLocal(ST_PASSIVE, integrated_slot, False, 0, 0, 0))
    if options:
        # Integration is forced when possible (the paper's constraints make
        # the integrating transition deterministic given the frames).
        return options

    # Timeout bookkeeping: traffic (cold-start or regular frames) resets
    # the timeout; silence and noise count it down.
    if saw_cold_start:
        timeout = config.listen_timeout(node_id)
    else:
        timeout = max(0, local.timeout - 1)

    big_bang = local.big_bang or saw_cold_start

    if timeout == 0 and not saw_cold_start:
        # Enter cold start: slot counter initialized to the node's own slot
        # (the cold-start frame itself goes out next slot).
        return [NodeLocal(ST_COLD_START, node_id, False, 0, 0, 0)]
    return [NodeLocal(ST_LISTEN, 0, big_bang, timeout, 0, 0)]


def _slotted_step(config: ModelConfig, node_id: int, local: NodeLocal,
                  verdict: Optional[str]) -> List[NodeLocal]:
    slots = config.slots
    cap = config.counter_cap
    agreed, failed = local.agreed, local.failed

    # Counter update for the slot that is completing (``None``: own send).
    if verdict is None or verdict == "agreed":
        agreed = min(cap, agreed + 1)
    elif verdict == "failed":
        failed = min(cap, failed + 1)

    next_slot = _next_slot(local.slot, slots)
    round_complete = next_slot == node_id

    if local.state == ST_COLD_START:
        if not round_complete:
            return [NodeLocal(ST_COLD_START, next_slot, False, 0, agreed, failed)]
        # Paper Section 4.3.4: the clique test on the (updated) counters.
        if agreed <= 1 and failed == 0:
            return [NodeLocal(ST_COLD_START, next_slot, False, 0, 0, 0)]
        if agreed > failed:
            return [NodeLocal(ST_ACTIVE, next_slot, False, 0, 0, 0)]
        return [NodeLocal(ST_LISTEN, 0, False,
                          config.listen_timeout(node_id), 0, 0)]

    if local.state == ST_ACTIVE:
        if not round_complete:
            options = [NodeLocal(ST_ACTIVE, next_slot, False, 0, agreed, failed)]
            if config.full_host_choices:
                options.append(NodeLocal(ST_FREEZE, 0, False, 0, 0, 0))
                options.append(NodeLocal(ST_PASSIVE, next_slot, False, 0,
                                         agreed, failed))
            return options
        # Round test: an active node always has its own send credited, so
        # agreed >= 1; losing the majority is the protocol-forced freeze.
        if agreed > failed:
            options = [NodeLocal(ST_ACTIVE, next_slot, False, 0, 0, 0)]
            if config.full_host_choices:
                options.append(NodeLocal(ST_FREEZE, 0, False, 0, 0, 0))
            return options
        return [NodeLocal(ST_FREEZE_CLIQUE, 0, False, 0, 0, 0)]

    if local.state == ST_PASSIVE:
        if not round_complete:
            return [NodeLocal(ST_PASSIVE, next_slot, False, 0, agreed, failed)]
        # At its own slot a passive node either acquires sending rights
        # (majority, or nothing observed yet) or fails the clique test.
        if agreed + failed == 0:
            return [NodeLocal(ST_ACTIVE, next_slot, False, 0, 0, 0)]
        if agreed > failed:
            return [NodeLocal(ST_ACTIVE, next_slot, False, 0, 0, 0)]
        return [NodeLocal(ST_FREEZE_CLIQUE, 0, False, 0, 0, 0)]

    raise AssertionError(f"unhandled node state {local.state!r}")
