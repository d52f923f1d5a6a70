"""Drifting component clocks.

TTP/C nodes and star couplers each run off a local crystal oscillator whose
rate deviates from nominal by a small amount, specified in parts-per-million
(ppm).  The paper's buffer analysis (Section 6) hinges on the *relative*
rate difference

    delta_rho = (rho_max - rho_min) / rho_max          (paper eq. 2)

between the fastest and slowest oscillator involved.  A typical commodity
crystal is quoted at +/-100 ppm, which, worst case (one fast, one slow),
gives delta_rho = 2e-4 (paper eq. 5).

:class:`DriftingClock` converts between *reference* (simulation) time and
*local* time:  a clock with rate ``r`` accumulates ``r`` local seconds per
reference second.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


def ppm_to_rate(ppm: float) -> float:
    """Oscillator rate relative to nominal for a given ppm offset.

    ``ppm_to_rate(+100)`` is a clock running 100 ppm fast (rate 1.0001).
    """
    return 1.0 + ppm * 1e-6


def relative_rate_difference(rates: Iterable[float]) -> float:
    """Paper eq. (2): ``(rho_max - rho_min) / rho_max`` over clock rates.

    Returns 0.0 for fewer than two clocks or identical rates.
    """
    rates = list(rates)
    if len(rates) < 2:
        return 0.0
    fastest = max(rates)
    slowest = min(rates)
    if fastest <= 0:
        raise ValueError(f"clock rates must be positive, got max {fastest!r}")
    return (fastest - slowest) / fastest


@dataclass(frozen=True)
class ClockConfig:
    """Static description of one oscillator.

    ``ppm`` is the deviation from nominal; ``nominal_hz`` is the nominal bit
    clock frequency (bits per second on the wire for this component).
    """

    ppm: float = 0.0
    nominal_hz: float = 1_000_000.0

    @property
    def rate(self) -> float:
        """Relative rate (1.0 = exactly nominal)."""
        return ppm_to_rate(self.ppm)

    @property
    def actual_hz(self) -> float:
        """Actual bit frequency including drift."""
        return self.nominal_hz * self.rate

    @property
    def bit_time(self) -> float:
        """Seconds of reference time to shift one bit at the actual rate."""
        return 1.0 / self.actual_hz


class DriftingClock:
    """A local clock that runs fast or slow relative to reference time.

    The clock is linear: it reads 0 at reference time ``epoch`` and then
    advances at its configured rate.  Clock synchronization corrects the
    controller's slot grid, not the oscillator.
    """

    def __init__(self, config: ClockConfig, epoch: float = 0.0) -> None:
        self.config = config
        self._rate = config.rate
        # Reference/local anchor pair; local time is affine from the anchor.
        self._anchor_ref = epoch
        self._anchor_local = 0.0

    @property
    def rate(self) -> float:
        """Current relative rate (local seconds per reference second)."""
        return self._rate

    def local_time(self, ref_time: float) -> float:
        """Local clock reading at reference time ``ref_time``."""
        return self._anchor_local + (ref_time - self._anchor_ref) * self._rate

    def ref_time(self, local_time: float) -> float:
        """Reference time at which this clock reads ``local_time``."""
        return self._anchor_ref + (local_time - self._anchor_local) / self._rate

    def bits_elapsed(self, ref_duration: float) -> float:
        """Number of bit periods this clock counts in ``ref_duration``
        reference seconds at its actual bit rate."""
        return ref_duration * self.config.nominal_hz * self._rate

    def duration_of_bits(self, bits: float) -> float:
        """Reference-time duration needed to clock out ``bits`` bits."""
        return bits / (self.config.nominal_hz * self._rate)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DriftingClock(ppm={self.config.ppm}, rate={self._rate!r})"
