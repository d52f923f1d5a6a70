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

from typing import FrozenSet, Iterable

from repro.ttp.clique import CliqueCounters
from repro.ttp.cstate import CState


def word_members(word: int) -> FrozenSet[int]:
    """The slot ids whose bits are set in a membership word."""
    return frozenset(slot for slot in range(word.bit_length())
                     if word >> slot & 1)


class MembershipView:
    """Mutable membership bookkeeping for one controller.

    Membership is stored in one form only: the wire vector as an integer
    word (bit i = slot i; members are slots 1..64, bit 0 is reserved).
    The slot judge compares it against a frame's C-state word in O(1),
    and it changes only through this class's methods.
    :meth:`membership_set` derives the set form from the word and caches
    it until the word changes.

    The clique counters are kept as saturating plain integers -- one pair
    of updates per judged slot is the membership hot path -- and exposed
    as a :class:`CliqueCounters` value through the :attr:`counters`
    property (built on demand; the avoidance test runs once per round).
    """

    __slots__ = ("own_slot", "word", "judged", "judged_failed", "_agreed",
                 "_failed", "_cap", "_snapshot", "_snapshot_word")

    def __init__(self, own_slot: int) -> None:
        self.own_slot = own_slot
        #: Membership vector (bit i = slot i).  Read freely; change it only
        #: through the methods below.
        self.word = 0
        #: Lifetime judgment counts (diagnostics).
        #: Counters rather than a judgment log: a long large-N run judges
        #: hundreds of thousands of node-slots.
        self.judged = 0
        self.judged_failed = 0
        self._agreed = 0
        self._failed = 0
        self._cap = CliqueCounters().cap
        #: Cached :meth:`membership_set` result and the word it was built
        #: from; keyed on the word's value, so it cannot go stale.
        self._snapshot: FrozenSet[int] = frozenset()
        self._snapshot_word = 0

    @property
    def counters(self) -> CliqueCounters:
        """This round's judgments as an immutable counters value."""
        return CliqueCounters(self._agreed, self._failed, self._cap)

    def reset_round(self) -> None:
        """Start a new round of clique counting."""
        self._agreed = 0
        self._failed = 0

    def apply_judgment(self, slot_id: int, correct: bool, null: bool) -> None:
        """Fold one slot verdict into membership and counters."""
        self.judged += 1
        if correct:
            self.word |= 1 << slot_id
            if self._agreed < self._cap:
                self._agreed += 1
            return
        # Silence also removes the sender (it may simply have nothing
        # scheduled) but counts neither way.
        self.word &= ~(1 << slot_id)
        if not null:
            self.judged_failed += 1
            if self._failed < self._cap:
                self._failed += 1

    def record_own_send(self) -> None:
        """A controller's own successful send counts as an agreed slot and
        keeps itself in the membership."""
        self.word |= 1 << self.own_slot
        if self._agreed < self._cap:
            self._agreed += 1

    def assign(self, members: Iterable[int]) -> None:
        """Replace the membership with exactly ``members``."""
        word = 0
        for member in members:
            word |= 1 << member
        self.word = word

    def adopt(self, cstate: CState) -> None:
        """Replace the membership view with the one from an adopted C-state
        (integration path)."""
        self.word = cstate.membership_word()

    def membership_set(self) -> FrozenSet[int]:
        """Immutable snapshot for embedding into a C-state."""
        word = self.word
        if word != self._snapshot_word:
            self._snapshot = word_members(word)
            self._snapshot_word = word
        return self._snapshot

    def is_member(self, slot_id: int) -> bool:
        return bool(self.word >> slot_id & 1)
