"""Model configuration.

The configuration captures both the system design choice under study (the
star couplers' authority level) and the side constraints the paper adds to
steer the model checker toward particular counterexamples:

* limiting the number of out-of-slot errors to one ("as one might argue
  that such an accumulation of errors is unlikely", Section 5.2), and
* prohibiting the duplication of cold-start frames (to obtain the second
  trace, where a C-state frame is duplicated instead).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.authority import CouplerAuthority, features_of

#: Coupler fault mode names used inside the model (paper Section 4.4).
FAULT_NONE = "none"
FAULT_SILENCE = "silence"
FAULT_BAD_FRAME = "bad_frame"
FAULT_OUT_OF_SLOT = "out_of_slot"


@dataclass(frozen=True)
class ModelConfig:
    """Parameters of the Section 4 model."""

    #: Star-coupler authority level (Section 4.1 feature sets).
    authority: CouplerAuthority = CouplerAuthority.FULL_SHIFTING
    #: Number of nodes == number of TDMA slots (the paper uses 4: A..D).
    slots: int = 4
    #: Maximum number of out-of-slot errors along any run (None: unlimited,
    #: the paper's first check; 1: the constraint added for trace 1).
    out_of_slot_budget: Optional[int] = 1
    #: Whether a buffered cold-start frame may be replayed (False recreates
    #: the paper's trace-2 constraint prohibiting cold-start duplication).
    allow_cold_start_replay: bool = True
    #: Restrict faults to one designated coupler (0 or 1).  ``None`` lets
    #: either coupler fault (never both at once -- the fault hypothesis).
    #: The two couplers are symmetric, so 0 is an exact symmetry reduction.
    faulty_coupler: Optional[int] = 0
    #: Restore the paper's full nondeterministic host choices
    #: (freeze -> {init, await, test}, active -> {freeze, passive}).  The
    #: extra branches are absorbing or property-neutral; disabled by
    #: default to keep the reachable space small (see DESIGN.md).
    full_host_choices: bool = False
    #: Saturation cap for the clique counters; must exceed slots + 1 for
    #: the round test to be exact.  ``None`` picks ``slots + 2``.
    counter_cap: Optional[int] = None
    #: Ablation switch: disable the big-bang rule (listeners integrate on
    #: the *first* cold-start frame they see).  The rule defends against a
    #: single spontaneous bogus cold-start frame; the paper's point is that
    #: a full-shifting coupler's *replay* defeats it, because the replayed
    #: frame is a perfectly well-formed second sighting.
    big_bang_enabled: bool = True
    #: Start from a *running* cluster instead of all-frozen: all nodes but
    #: the last are active (at every possible round position), and the
    #: last node is powered off, about to be reawakened by its host -- the
    #: paper's "integrating into a running cluster" analysis.
    start_running: bool = False

    def __post_init__(self) -> None:
        if self.slots < 2:
            raise ValueError(f"need at least 2 slots, got {self.slots}")
        if self.counter_cap is None:
            object.__setattr__(self, "counter_cap", self.slots + 2)
        if self.counter_cap < self.slots + 1:
            raise ValueError(
                f"counter_cap {self.counter_cap} must exceed slots+1 "
                f"({self.slots + 1}) for an exact clique test")
        if self.faulty_coupler is not None and self.faulty_coupler not in (0, 1):
            raise ValueError(f"faulty_coupler must be 0, 1 or None")
        if self.out_of_slot_budget is not None and self.out_of_slot_budget < 0:
            raise ValueError("out_of_slot_budget cannot be negative")

    @property
    def node_ids(self) -> Tuple[int, ...]:
        """1-based node / slot ids."""
        return tuple(range(1, self.slots + 1))

    @property
    def node_names(self) -> Tuple[str, ...]:
        """Display names A, B, C, ... for trace rendering."""
        return tuple(chr(ord("A") + index) for index in range(self.slots))

    def name_of(self, node_id: int) -> str:
        return self.node_names[node_id - 1]

    @property
    def couplers_can_buffer(self) -> bool:
        """Whether the configured couplers can store whole frames."""
        return features_of(self.authority).can_shift_full

    def fault_modes(self) -> List[str]:
        """Fault modes a coupler may exhibit at this authority level.

        All configurations may show silence and bad-frame faults; only the
        full-shifting configuration can physically produce the out-of-slot
        replay (paper Section 4.4).
        """
        modes = [FAULT_SILENCE, FAULT_BAD_FRAME]
        if self.couplers_can_buffer:
            modes.append(FAULT_OUT_OF_SLOT)
        return modes

    def fault_coupler_indices(self) -> List[int]:
        """Couplers allowed to exhibit a fault."""
        if self.faulty_coupler is None:
            return [0, 1]
        return [self.faulty_coupler]

    def listen_timeout(self, node_id: int) -> int:
        """Initial listen-timeout of one node, in slots.

        Paper Section 4.3.2 assigns each node the unique value
        ``slots + node_slot``.
        """
        from repro.ttp.startup import listen_timeout_slots

        return listen_timeout_slots(self.slots, node_id)
