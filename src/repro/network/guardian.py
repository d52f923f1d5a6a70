"""Node-local bus guardians (bus topology).

In the TTA bus topology every node has its own bus guardian: an independent
device (own clock, physical isolation) that opens the node's transmitter
only during the node's MEDL slot.  A healthy local guardian contains
babbling-idiot faults, but -- unlike the central guardian -- it cannot
reshape marginal signals (SOS faults pass through) and performs no semantic
analysis (masquerading cold-start frames and invalid C-states pass
through).  These gaps are exactly what motivated the central-guardian star
design the paper analyzes.

A *faulty* local guardian that blocks everything silences only its own node
(the paper's Section 1 contrast with a faulty central guardian, which
silences the whole channel).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.network.channel import Channel, Transmission
from repro.obs import events as obs_events
from repro.sim.engine import Simulator
from repro.sim.monitor import TraceMonitor
from repro.ttp.medl import Medl


class GuardianFault(enum.Enum):
    """Local guardian fault modes."""

    NONE = "none"
    #: Blocks every transmission of its node (fail-silent guardian).
    BLOCK_ALL = "block_all"
    #: Stops enforcing the time window (a babbling node gets through).
    PASS_ALL = "pass_all"


@dataclass
class GuardianStats:
    """Counters for experiment reporting."""

    forwarded: int = 0
    blocked_out_of_window: int = 0
    blocked_by_fault: int = 0


class LocalBusGuardian:
    """Per-node transmit gate for the bus topology."""

    def __init__(self, sim: Simulator, node_name: str, medl: Medl,
                 channel: Channel, monitor: Optional[TraceMonitor] = None,
                 fault: GuardianFault = GuardianFault.NONE) -> None:
        self.sim = sim
        self.node_name = node_name
        self._source = f"guardian:{node_name}"
        self.medl = medl
        self.channel = channel
        self.monitor = monitor
        self.fault = fault
        self.stats = GuardianStats()
        self._sync_anchor: Optional[float] = None
        #: Cached (window start, window end, round duration), built lazily
        #: from the MEDL dispatch table (the schedule is static).
        self._window: Optional[tuple] = None

    def synchronize(self, round_start_ref_time: float) -> None:
        """Anchor the guardian's independent slot schedule."""
        self._sync_anchor = round_start_ref_time

    @property
    def synchronized(self) -> bool:
        return self._sync_anchor is not None

    def window_open(self, ref_time: float) -> bool:
        """Whether the node's transmit window is currently open.

        Before synchronization (startup) the guardian cannot enforce
        windows and leaves the transmitter enabled -- the reason startup
        masquerading is possible on the bus topology.
        """
        if self._sync_anchor is None:
            return True
        window = self._window
        if window is None:
            dispatch = self.medl.dispatch()
            slot_id = self.medl.slot_of(self.node_name)
            start = dispatch.start_offsets[slot_id - 1]
            end = start + dispatch.durations[slot_id - 1]
            window = (start - 1e-9, end - 1e-9, dispatch.round_duration)
            self._window = window
        phase = (ref_time - self._sync_anchor) % window[2]
        return window[0] <= phase < window[1]

    def transmit(self, transmission: Transmission) -> bool:
        """Gate one transmission from the node; returns True if forwarded."""
        if self.fault is GuardianFault.BLOCK_ALL:
            self.stats.blocked_by_fault += 1
            self._emit(obs_events.BlockedByFault, sender=transmission.source)
            return False
        if self.fault is not GuardianFault.PASS_ALL and not self.window_open(self.sim.now):
            self.stats.blocked_out_of_window += 1
            self._emit(obs_events.BlockedOutOfWindow, sender=transmission.source)
            return False
        self.stats.forwarded += 1
        self.channel.transmit(transmission)
        return True

    def _emit(self, event_cls, **details) -> None:
        monitor = self.monitor
        if monitor is not None:
            monitor.emit(obs_events.fill_event(event_cls, self.sim.now,
                                               self._source, details))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"LocalBusGuardian({self.node_name!r}, fault={self.fault.value})"
