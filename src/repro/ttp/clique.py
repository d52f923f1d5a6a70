"""Clique avoidance.

TTP/C prevents the cluster from fragmenting into multiple communicating
subsets ("cliques").  Each controller counts, per TDMA round, the slots in
which it received a correct frame (``agreed_slots_counter``) and the slots
with an incorrect/invalid frame (``failed_slots_counter``).  Once per round
(at its own slot) it runs the clique-avoidance test:

* a node still in cold start re-sends its cold-start frame if it saw no
  traffic, goes *active* if the agreed count strictly exceeds the failed
  count, and falls back to *listen* otherwise (paper Section 4.3.4);
* an integrated node must be in the majority clique (agreed > failed) --
  otherwise the protocol forces it into the *freeze* state.  This forced
  freeze is exactly the failure the paper's checked property forbids for
  fault-free nodes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class CliqueVerdict(enum.Enum):
    """Outcome of the once-per-round clique-avoidance test."""

    #: Cold-start node saw essentially no traffic: re-send the cold-start frame.
    RESEND_COLD_START = "resend_cold_start"
    #: Majority agrees with us: (remain) active.
    MAJORITY = "majority"
    #: Cold-start node lost the majority test: back to listen.
    MINORITY_TO_LISTEN = "minority_to_listen"
    #: Integrated node lost the majority test: protocol-forced freeze.
    MINORITY_FREEZE = "minority_freeze"


@dataclass(frozen=True)
class CliqueCounters:
    """Per-round agreed/failed slot counters.

    Counters saturate at ``cap`` to keep the formal model finite; the cap
    only needs to exceed the round length for the test to be exact.
    """

    agreed: int = 0
    failed: int = 0
    cap: int = 15

    def __post_init__(self) -> None:
        if self.agreed < 0 or self.failed < 0:
            raise ValueError("counters cannot be negative")

    def reset(self) -> "CliqueCounters":
        """Fresh counters for a new round."""
        if not self.agreed and not self.failed:
            return self
        return CliqueCounters(0, 0, self.cap)

    @property
    def total(self) -> int:
        return self.agreed + self.failed


def clique_avoidance_test(counters: CliqueCounters, integrated: bool) -> CliqueVerdict:
    """Run the clique-avoidance test on one round's counters.

    ``integrated`` distinguishes the cold-start variant (which can retreat
    to listen) from the active/passive variant (which must freeze on a
    minority verdict).
    """
    if not integrated and counters.agreed <= 1 and counters.failed == 0:
        # Own send counts as one agreed slot; nothing else was heard.
        return CliqueVerdict.RESEND_COLD_START
    if counters.agreed > counters.failed:
        return CliqueVerdict.MAJORITY
    if integrated:
        return CliqueVerdict.MINORITY_FREEZE
    return CliqueVerdict.MINORITY_TO_LISTEN
