"""Group membership service.

Each TTP/C controller maintains a membership vector: its view of which
slots currently hold operating members.  The vector is updated from
observed traffic -- a correct frame in a slot keeps (or re-adds) the sender
in the membership, an invalid/incorrect frame or silence removes it.

Membership feeds two mechanisms the paper exercises:

* it is part of the C-state, so nodes whose membership views diverge stop
  accepting each other's frames (the SOS scenario of Section 2.2), and
* the clique counters are derived from the same per-slot judgments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional

from repro.ttp.clique import CliqueCounters
from repro.ttp.cstate import CState
from repro.ttp.frames import FrameObservation


@dataclass
class SlotJudgment:
    """A receiver's verdict about one slot's traffic."""

    slot_id: int
    correct: bool
    null: bool

    @property
    def failed(self) -> bool:
        return not self.correct and not self.null


class MembershipView:
    """Mutable membership bookkeeping for one controller.

    The clique counters are kept as saturating plain integers -- one pair
    of updates per judged slot is the membership hot path -- and exposed
    as a :class:`CliqueCounters` value through the :attr:`counters`
    property (built on demand; the avoidance test runs once per round).
    """

    __slots__ = ("own_slot", "members", "judged", "judged_failed", "_agreed",
                 "_failed", "_cap", "_snapshot", "_snapshot_of")

    def __init__(self, own_slot: int) -> None:
        self.own_slot = own_slot
        self.members: set = set()
        #: Lifetime judgment counts (diagnostics; see :meth:`failed_ratio`).
        #: Counters rather than a judgment log: a long large-N run judges
        #: hundreds of thousands of node-slots.
        self.judged = 0
        self.judged_failed = 0
        self._agreed = 0
        self._failed = 0
        self._cap = CliqueCounters().cap
        #: Cached :meth:`membership_set` snapshot.  Valid only while it was
        #: built from the *current* ``members`` object (callers may reassign
        #: ``members`` wholesale; in-class mutations invalidate explicitly).
        self._snapshot: Optional[FrozenSet[int]] = None
        self._snapshot_of: Optional[set] = None

    @property
    def counters(self) -> CliqueCounters:
        """This round's judgments as an immutable counters value."""
        return CliqueCounters(self._agreed, self._failed, self._cap)

    @counters.setter
    def counters(self, value: CliqueCounters) -> None:
        self._agreed = value.agreed
        self._failed = value.failed
        self._cap = value.cap

    def reset_round(self) -> None:
        """Start a new round of clique counting."""
        self._agreed = 0
        self._failed = 0

    def judge_slot(self, slot_id: int, observations: List[FrameObservation],
                   receiver_cstate: CState) -> SlotJudgment:
        """Judge one slot from the observations on all channels.

        TTP/C accepts a slot if *any* channel carried a correct frame
        (channels are replicas); the slot is null only if every channel was
        silent.  The judgment updates membership and clique counters.
        """
        any_correct = any(
            observation.is_correct(receiver_cstate) for observation in observations)
        all_null = all(observation.is_null() for observation in observations)
        judgment = SlotJudgment(slot_id=slot_id, correct=any_correct, null=all_null)
        self.apply_judgment(judgment)
        return judgment

    def apply_judgment(self, judgment: SlotJudgment) -> None:
        """Fold one slot verdict into membership and counters."""
        self.judged += 1
        members = self.members
        if judgment.correct:
            if judgment.slot_id not in members:
                members.add(judgment.slot_id)
                self._snapshot = None
            if self._agreed < self._cap:
                self._agreed += 1
        elif judgment.null:
            # Silence: the sender may simply have nothing scheduled; TTP/C
            # removes it from membership but counts neither way.
            if judgment.slot_id in members:
                members.discard(judgment.slot_id)
                self._snapshot = None
        else:
            self.judged_failed += 1
            if judgment.slot_id in members:
                members.discard(judgment.slot_id)
                self._snapshot = None
            if self._failed < self._cap:
                self._failed += 1

    def record_own_send(self) -> None:
        """A controller's own successful send counts as an agreed slot and
        keeps itself in the membership."""
        if self.own_slot not in self.members:
            self.members.add(self.own_slot)
            self._snapshot = None
        if self._agreed < self._cap:
            self._agreed += 1

    def membership_set(self) -> FrozenSet[int]:
        """Immutable snapshot for embedding into a C-state."""
        snapshot = self._snapshot
        if snapshot is not None and self._snapshot_of is self.members:
            return snapshot
        snapshot = frozenset(self.members)
        self._snapshot = snapshot
        self._snapshot_of = self.members
        return snapshot

    def is_member(self, slot_id: int) -> bool:
        return slot_id in self.members

    def adopt(self, cstate: CState) -> None:
        """Replace the membership view with the one from an adopted C-state
        (integration path)."""
        self.members = set(cstate.membership)
        self._snapshot = None

    def failed_ratio(self) -> float:
        """Fraction of judged slots that failed (diagnostics)."""
        if not self.judged:
            return 0.0
        return self.judged_failed / self.judged
