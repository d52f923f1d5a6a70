"""Distributed clock synchronization (fault-tolerant average).

TTP/C synchronizes clocks without a master: every controller measures the
deviation between each frame's *actual* and *expected* arrival time (the
expected time is fixed by the MEDL), then periodically applies the
fault-tolerant average (FTA) of the collected deviations as a correction to
its local clock.  The FTA discards the ``k`` largest and ``k`` smallest
measurements so that up to ``k`` Byzantine-faulty clocks cannot drag the
ensemble (paper Section 2.1; Lamport et al. [6] for the fault bound).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

#: Deviation patterns a Byzantine clock adversary can follow.  ``rush``
#: runs its grid early, ``drag`` runs it late, ``oscillate`` alternates,
#: and ``two_faced`` keeps an honest grid but skews its transmissions
#: per channel so every receiver collects two same-direction outlier
#: measurements from one node (classic double voting against the FTA).
BYZANTINE_MODES = ("rush", "drag", "oscillate", "two_faced")


def byzantine_offset(mode: str, magnitude: float, round_index: int) -> float:
    """Absolute grid offset a Byzantine clock targets in a given round.

    The offset is relative to the honest grid the node held at fault
    activation, not cumulative: a ``rush`` clock sits ``magnitude`` early
    every round rather than running away, which keeps it inside the
    receivers' precision window (``max_correction``) where it can actually
    poison the FTA instead of being rejected outright.
    """
    if mode not in BYZANTINE_MODES:
        raise ValueError(f"unknown Byzantine mode {mode!r}")
    if mode == "rush":
        return -magnitude
    if mode == "drag":
        return magnitude
    if mode == "oscillate":
        return magnitude if round_index % 2 else -magnitude
    return 0.0  # two_faced keeps an honest grid; the skew is per channel


def fault_tolerant_average(deviations: List[float], discard: int = 1) -> float:
    """FTA over a list of measured deviations.

    Drops the ``discard`` largest and smallest values, then averages the
    rest.  With fewer than ``2*discard + 1`` measurements nothing can be
    safely discarded and the plain average is used (a correct controller
    always has at least its own reading).
    """
    if discard < 0:
        raise ValueError(f"discard must be non-negative, got {discard}")
    if not deviations:
        return 0.0
    ordered = sorted(deviations)
    if len(ordered) >= 2 * discard + 1 and discard > 0:
        ordered = ordered[discard:-discard]
    return sum(ordered) / len(ordered)


@dataclass
class ClockSynchronizer:
    """Collects deviations over a round and produces FTA corrections.

    ``max_correction`` bounds the applied correction: a deviation larger
    than the bound indicates a faulty frame (or a faulty local clock) and
    the protocol must not chase it (precision window of the spec).
    """

    discard: int = 1
    max_correction: float = 10.0
    #: Arrival-time deviations measured since the last correction.
    deviations: List[float] = field(default_factory=list)
    corrections_applied: int = 0
    last_correction: float = 0.0

    def observe(self, slot_id: int, expected_arrival: float,
                actual_arrival: float) -> float:
        """Record the deviation of the frame sent in ``slot_id``; returns
        the deviation."""
        deviation = actual_arrival - expected_arrival
        self.deviations.append(deviation)
        return deviation

    def pending_count(self) -> int:
        """Measurements collected since the last correction."""
        return len(self.deviations)

    def compute_correction(self) -> float:
        """FTA correction from the collected measurements, clamped to the
        precision window.  Clears the measurement set."""
        deviations = self.deviations
        self.deviations = []
        correction = fault_tolerant_average(deviations, discard=self.discard)
        if correction > self.max_correction:
            correction = self.max_correction
        elif correction < -self.max_correction:
            correction = -self.max_correction
        self.corrections_applied += 1
        self.last_correction = correction
        return correction

    def reset(self) -> None:
        """Drop any collected measurements (re-integration path)."""
        self.deviations = []


def precision_bound(delta_rho: float, resync_interval: float,
                    reading_error: float = 0.0) -> float:
    """Worst-case clock divergence between two correct controllers.

    Between resynchronizations ``resync_interval`` apart, two clocks with
    relative rate difference ``delta_rho`` drift apart by
    ``delta_rho * resync_interval`` plus any reading error -- the quantity a
    receiver's slot acceptance window must cover.  This is the link between
    the ppm numbers of paper eq. (5) and the timing tolerances of the SOS
    model.
    """
    if delta_rho < 0 or resync_interval < 0 or reading_error < 0:
        raise ValueError("precision_bound arguments must be non-negative")
    return delta_rho * resync_interval + reading_error


def fta_precision_budget(ppm_band: float, resync_interval: float,
                         reading_error: float = 0.0) -> float:
    """Eq. (10) drift-ratio budget for a cluster quoted at +/- ``ppm_band``.

    The worst relative rate difference between two correct crystals drawn
    from a +/- ``ppm_band`` tolerance band is
    ``((1 + p) - (1 - p)) / (1 - p)`` with ``p = ppm_band * 1e-6``; over one
    resynchronization interval that bounds how far any honest clock can
    drift from the ensemble, and hence how large an honest node's per-round
    FTA correction may legitimately be.  A correction outside this budget
    means the FTA was captured by faulty measurements -- the quantity the
    ``FtaResilienceMonitor`` gates on.
    """
    if ppm_band < 0:
        raise ValueError(f"ppm_band must be non-negative, got {ppm_band!r}")
    fraction = ppm_band * 1e-6
    if fraction >= 1.0:
        raise ValueError(f"ppm_band {ppm_band!r} is not a crystal tolerance")
    delta_rho = 2.0 * fraction / (1.0 - fraction)
    return precision_bound(delta_rho, resync_interval, reading_error)
