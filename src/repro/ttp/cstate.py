"""Controller state (C-state).

The C-state is the part of a TTP/C controller's state that every correct
cluster member must agree on: the global time, the current position in the
MEDL (which slot of which round), and the membership vector.  A frame is
*correct* only if the sender's C-state matches the receiver's -- checked
either by comparing an explicit C-state field (I/X-frames) or implicitly by
seeding the frame CRC with the C-state (N-frames).  The simulator's slot
judge compares the C-states directly in both cases; frames are not
serialized.

Integrating nodes adopt the C-state of the first valid explicit-C-state
frame they receive; this is exactly the mechanism the paper's out-of-slot
coupler fault subverts (a replayed frame carries a stale C-state).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Optional

from repro.ttp.constants import (
    GLOBAL_TIME_BITS,
    MAX_MEMBERSHIP_SLOTS,
    MEDL_POSITION_BITS,
    MEMBERSHIP_BITS,
)

_GLOBAL_TIME_WRAP = 1 << GLOBAL_TIME_BITS


@dataclass(frozen=True)
class CState:
    """Immutable controller state snapshot.

    ``membership`` is the set of slot ids the controller currently believes
    are operating members.  ``global_time`` and ``medl_position`` wrap at
    their field widths, mirroring the on-wire representation.

    :meth:`membership_word` is memoized per instance (outside the dataclass
    fields, so it takes no part in ``==``, ``hash`` or ``replace``): the
    slot judge compares memberships as words, once per node-slot.
    """

    global_time: int = 0
    medl_position: int = 1
    membership: FrozenSet[int] = field(default_factory=frozenset)
    dmc_mode: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.global_time < (1 << GLOBAL_TIME_BITS):
            raise ValueError(f"global_time {self.global_time} out of field range")
        if not 0 <= self.medl_position < (1 << MEDL_POSITION_BITS):
            raise ValueError(f"medl_position {self.medl_position} out of field range")
        for member in self.membership:
            # Members are 1-based slot ids (bit 0 of the wire vector is
            # reserved), so the full 64-slot cluster uses bits 1..64.
            if not 0 <= member <= MAX_MEMBERSHIP_SLOTS:
                raise ValueError(
                    f"membership slot {member} exceeds the "
                    f"{MAX_MEMBERSHIP_SLOTS}-slot vector limit")

    # -- wire representation ---------------------------------------------------

    def membership_word(self) -> int:
        """Membership vector packed into an integer (bit i = slot i)."""
        try:
            return self._membership_word
        except AttributeError:
            word = 0
            for member in self.membership:
                word |= 1 << member
            self.__dict__["_membership_word"] = word
            return word

    def membership_field_bits(self) -> int:
        """Width of the membership wire field for this C-state.

        The paper's minimum configuration uses exactly
        :data:`MEMBERSHIP_BITS`; memberships referencing higher slots
        (large generated clusters) pad to the next 16-bit multiple, so
        every frame size is the fixed-width one whenever all members fit.
        """
        if not self.membership:
            return MEMBERSHIP_BITS
        highest = max(self.membership)
        if highest < MEMBERSHIP_BITS:
            return MEMBERSHIP_BITS
        return -(-(highest + 1) // MEMBERSHIP_BITS) * MEMBERSHIP_BITS

    # -- evolution ---------------------------------------------------------------

    @classmethod
    def _unchecked(cls, global_time: int, medl_position: int,
                   membership: FrozenSet[int], dmc_mode: int,
                   membership_word: Optional[int] = None) -> "CState":
        """Fast constructor for fields already known to be in range.

        The evolution methods derive every field from an already-validated
        C-state, so re-running ``__post_init__``'s range checks (and the
        dataclass ``__init__`` machinery) per TDMA slot is pure overhead
        on the simulation hot path.  A caller that already holds the
        membership as a word passes it to seed the memo.
        """
        state = object.__new__(cls)
        fields = state.__dict__
        fields["global_time"] = global_time
        fields["medl_position"] = medl_position
        fields["membership"] = membership
        fields["dmc_mode"] = dmc_mode
        if membership_word is not None:
            fields["_membership_word"] = membership_word
        return state

    def advanced(self, slots_in_round: int, slot_duration_ticks: int = 1) -> "CState":
        """C-state after one TDMA slot elapses."""
        next_position = self.medl_position + 1
        if next_position > slots_in_round:
            next_position = 1
        next_time = (self.global_time + slot_duration_ticks) % _GLOBAL_TIME_WRAP
        return CState._unchecked(next_time, next_position, self.membership,
                                 self.dmc_mode)

    def __str__(self) -> str:
        members = ",".join(str(member) for member in sorted(self.membership)) or "-"
        return (f"CState(t={self.global_time}, pos={self.medl_position}, "
                f"members={{{members}}})")
