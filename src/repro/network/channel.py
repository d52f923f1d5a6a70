"""Broadcast channels and transmissions.

A :class:`Channel` is one of the TTA's two independent broadcast media.
Transmissions occupy the channel for their duration; two overlapping
transmissions interfere and both are delivered corrupted (the receivers
see an invalid frame -- "interfered with by another transmission during the
time slot" in the paper's validity definition).

Per the TTP/C fault hypothesis, the channel itself may *corrupt or drop*
frames (passive faults) but never generates them; active behaviour such as
replaying frames can only come from a star coupler placed between the
transmitters and the channel (exactly the paper's concern).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, List, Optional, Tuple

from repro.network.signal import NOMINAL_SHAPE, SignalShape
from repro.obs import events as obs_events
from repro.sim.engine import Simulator
from repro.sim.monitor import TraceMonitor
from repro.ttp.frames import Frame

#: Subscriber signature: (transmission, corrupted) -> None.
Subscriber = Callable[["Transmission", bool], None]


@dataclass(frozen=True)
class Transmission:
    """One frame being driven onto a medium.

    ``source`` is the physical port identity (node name) -- a star coupler
    knows which port a transmission arrives on even when the frame content
    claims another sender (the masquerading case).
    """

    frame: Frame
    source: str
    start_time: float
    duration: float
    shape: SignalShape = NOMINAL_SHAPE

    @property
    def end_time(self) -> float:
        return self.start_time + self.duration

    def overlaps(self, other: "Transmission") -> bool:
        """Whether two transmissions interfere in time."""
        return self.start_time < other.end_time and other.start_time < self.end_time


class Channel:
    """A broadcast medium with collision semantics.

    Receivers subscribe a callback invoked when a transmission *completes*
    (store-and-forward at the receiver: a frame can only be judged once it
    has fully arrived).  Each transmission posts its own completion on
    the simulator's event queue.
    """

    def __init__(self, sim: Simulator, name: str,
                 monitor: Optional[TraceMonitor] = None,
                 drop_probability: float = 0.0,
                 corrupt_probability: float = 0.0,
                 rng=None) -> None:
        self.sim = sim
        self.name = name
        self.monitor = monitor
        self._source = f"channel:{name}"
        if rng is None and (drop_probability > 0.0 or corrupt_probability > 0.0):
            # Without an rng, _chance never fires: a configured fault rate
            # would be a silent no-op, which is worse than refusing to build.
            raise ValueError(
                f"channel {name!r} has drop_probability={drop_probability!r}, "
                f"corrupt_probability={corrupt_probability!r} but no rng; "
                f"pass a RandomStream or zero the probabilities")
        self.drop_probability = drop_probability
        self.corrupt_probability = corrupt_probability
        self.rng = rng
        self._subscribers: Tuple[Subscriber, ...] = ()
        self._active: List[Transmission] = []
        self._collided: set = set()
        self.delivered_count = 0
        self.dropped_count = 0
        self.corrupted_count = 0

    def subscribe(self, subscriber: Subscriber) -> None:
        """Register a receiver callback."""
        self._subscribers = self._subscribers + (subscriber,)

    def transmit(self, transmission: Transmission) -> None:
        """Begin driving a transmission onto the medium.

        Must be called at ``transmission.start_time`` (the current simulated
        instant); completion is scheduled automatically.
        """
        now = self.sim.now
        if abs(transmission.start_time - now) > 1e-9:
            raise ValueError(
                f"transmission start {transmission.start_time!r} is not now "
                f"({now!r})")
        active = self._active
        if active:
            for other in active:
                if transmission.overlaps(other):
                    self._collided.add(id(other))
                    self._collided.add(id(transmission))
        active.append(transmission)
        monitor = self.monitor
        if monitor is not None:
            # Built via __new__ + __dict__: the Event constructor's
            # argument checks, paid by the two per-transmission emits,
            # are a measurable hot-path cost.
            event = object.__new__(obs_events.TxStart)
            details = event.__dict__
            details["time"] = now
            details["source"] = self._source
            details["sender"] = transmission.source
            details["frame_kind"] = transmission.frame.kind_value
            monitor.emit(event)
        # The completion fires at now + (end - now), not at end: the
        # golden traces pin these event times bit for bit.
        self.sim.post(transmission.end_time - now,
                      partial(self._complete, transmission))

    def _complete(self, transmission: Transmission) -> None:
        # Identity-based removal: the same (frozen, by-value-equal)
        # transmission object may ride both channels.
        active = self._active
        for index, candidate in enumerate(active):
            if candidate is transmission:
                del active[index]
                break
        if self._collided:
            collided = id(transmission) in self._collided
            self._collided.discard(id(transmission))
        else:
            collided = False

        # Passive channel faults: drop or corrupt.
        if self.drop_probability > 0.0 and self._chance(self.drop_probability):
            self.dropped_count += 1
            return
        corrupted = collided or (self.corrupt_probability > 0.0
                                 and self._chance(self.corrupt_probability))
        if corrupted:
            self.corrupted_count += 1

        self.delivered_count += 1
        monitor = self.monitor
        if monitor is not None:
            event = object.__new__(obs_events.TxComplete)
            details = event.__dict__
            details["time"] = self.sim.now
            details["source"] = self._source
            details["sender"] = transmission.source
            details["frame_kind"] = transmission.frame.kind_value
            details["corrupted"] = corrupted
            monitor.emit(event)
        # Subscribers attach at wiring time; the tuple is rebuilt on
        # subscribe, so iteration needs no defensive copy.
        for subscriber in self._subscribers:
            subscriber(transmission, corrupted)

    def _chance(self, probability: float) -> bool:
        if probability <= 0.0 or self.rng is None:
            return False
        return self.rng.bernoulli(probability)

    @property
    def busy(self) -> bool:
        """Whether any transmission is currently on the medium."""
        return bool(self._active)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Channel({self.name!r}, active={len(self._active)})"
