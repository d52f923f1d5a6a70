"""Protocol constants and bit layouts.

All sizes come from the TTP/C specification values the paper quotes
(Sections 6 and references [5, 12]).  Where the paper's own arithmetic is
internally inconsistent, both values are exposed and the discrepancy is
documented (see DESIGN.md, "Known inconsistencies").
"""

from __future__ import annotations

import enum


class ControllerStateName(enum.Enum):
    """The nine protocol states of a TTP/C controller (paper Section 4.3)."""

    FREEZE = "freeze"
    INIT = "init"
    LISTEN = "listen"
    COLD_START = "cold_start"
    ACTIVE = "active"
    PASSIVE = "passive"
    TEST = "test"
    AWAIT = "await"
    DOWNLOAD = "download"


#: States in which a node has successfully integrated into the cluster.
INTEGRATED_STATES = frozenset({
    ControllerStateName.ACTIVE,
    ControllerStateName.PASSIVE,
})


class FrameKind(enum.Enum):
    """Frame categories as observed on a channel (paper Section 4.3.2).

    ``NONE`` denotes silence; ``BAD_FRAME`` denotes a frame with coding or
    CRC violations (or channel noise); ``OTHER`` denotes a regular frame
    without explicit C-state (an N-frame).
    """

    NONE = "none"
    COLD_START = "cold_start"
    C_STATE = "c_state"
    BAD_FRAME = "bad_frame"
    OTHER = "other"


# -- CRC ---------------------------------------------------------------------

#: TTP/C protects frames with a 24-bit CRC.
CRC_BITS = 24


# -- Frame field widths (bits) -------------------------------------------------

#: Mode change request + frame type header.
HEADER_BITS = 4

#: Global time field of the C-state.
GLOBAL_TIME_BITS = 16

#: MEDL position field of the C-state.
MEDL_POSITION_BITS = 16

#: Membership vector field of the C-state (one bit per cluster slot,
#: padded to the spec's 16-bit field for the minimum configuration).
MEMBERSHIP_BITS = 16

#: Largest cluster the simulator accepts: the membership wire field grows
#: in :data:`MEMBERSHIP_BITS` increments beyond the minimum configuration
#: (TTP/C supports up to 64 slots).  Schedules of at most
#: :data:`MEMBERSHIP_BITS` slots keep the paper's exact 16-bit field and
#: frame sizes; larger generated clusters pad the field to the next
#: 16-bit multiple.
MAX_MEMBERSHIP_SLOTS = 64

#: Round-slot position in a cold-start frame.
ROUND_SLOT_BITS = 9

#: C-state field of an X-frame (explicit C-state, 96 bits).
X_CSTATE_BITS = 96

#: Application data payload of a maximum-length X-frame.
X_DATA_BITS = 1920

#: CRC padding in an X-frame.
X_CRC_PAD_BITS = 8


# -- Frame total sizes (bits), as used in the paper's equations -----------------

#: Shortest TTP/C frame: an N-frame with no application data and implicit
#: CRC -- 4 header bits + 24 CRC bits (paper Section 6).
N_FRAME_BITS = HEADER_BITS + CRC_BITS
assert N_FRAME_BITS == 28

#: Minimum cold-start frame size *as stated* by the paper (40 bits).  The
#: paper's own field enumeration (1 + 16 + 9 + 24) sums to 50; we keep the
#: stated headline value because it is what a reader of the paper would use,
#: and expose the field sum separately.
COLD_START_FRAME_BITS = 40

#: Sum of the cold-start frame fields the paper enumerates (1-bit type +
#: 16-bit global time + 9-bit round-slot + 24-bit CRC).
COLD_START_FRAME_FIELD_SUM_BITS = 1 + GLOBAL_TIME_BITS + ROUND_SLOT_BITS + CRC_BITS
assert COLD_START_FRAME_FIELD_SUM_BITS == 50

#: Minimum frame with explicit C-state: an I-frame.  The paper's eq. (8)
#: arithmetic requires 76 bits (4 + 16 + 16 + 16 + 24), which is also the
#: field sum it enumerates; an earlier sentence says "48 bits" -- see
#: DESIGN.md.
I_FRAME_BITS = (HEADER_BITS + GLOBAL_TIME_BITS + MEDL_POSITION_BITS
                + MEMBERSHIP_BITS + CRC_BITS)
assert I_FRAME_BITS == 76

#: Longest allowable TTP/C frame: an X-frame with maximum application data
#: (4 + 96 + 1920 + 48 + 8 = 2076 bits, paper Section 6).
X_FRAME_BITS = (HEADER_BITS + X_CSTATE_BITS + X_DATA_BITS
                + 2 * CRC_BITS + X_CRC_PAD_BITS)
assert X_FRAME_BITS == 2076


# -- Line coding and clock tolerances -------------------------------------------

#: Bits of line encoding overhead the central guardian must buffer before it
#: can begin forwarding (``le`` in paper eq. 1); the paper uses 4.
LINE_ENCODING_BITS = 4

#: Quoted tolerance of a typical commodity crystal oscillator (paper eq. 5).
COMMODITY_CRYSTAL_PPM = 100.0

#: Worst-case relative clock-rate difference for two +/-100 ppm crystals
#: (one fast, one slow): paper eq. (5) approximates this as 2e-4.
WORST_CASE_COMMODITY_DELTA_RHO = 2 * COMMODITY_CRYSTAL_PPM * 1e-6


# -- Cluster defaults ------------------------------------------------------------

#: Number of nodes used throughout the paper's model (A, B, C, D).  Four is
#: also the minimum for Byzantine fault tolerance with independent guardians.
DEFAULT_CLUSTER_SIZE = 4

#: Number of independent channels/star couplers the TTA requires.
CHANNEL_COUNT = 2
