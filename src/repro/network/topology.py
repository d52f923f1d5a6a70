"""Cluster wiring: bus vs. star topologies.

Both topologies expose the same interface to the protocol layer:

* ``send(source, frame, duration, shape)`` -- drive a frame from a node
  onto both replicated channels (TTP/C always sends on both),
* ``attach_receiver(callback)`` -- deliver every completed transmission as
  ``callback(channel_index, transmission, corrupted)``.

The difference is the path between a node and each channel:

* **bus**: node -> its local bus guardian -> channel,
* **star**: node -> the channel's central star coupler -> channel.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.core.authority import CouplerAuthority
from repro.network.channel import Channel, Transmission
from repro.network.guardian import GuardianFault, LocalBusGuardian
from repro.network.signal import NOMINAL_SHAPE, SignalShape
from repro.network.star_coupler import CouplerFault, StarCoupler
from repro.sim.engine import Simulator
from repro.sim.monitor import TraceMonitor
from repro.ttp.constants import CHANNEL_COUNT
from repro.ttp.frames import Frame
from repro.ttp.medl import Medl

#: Receiver signature: (channel_index, transmission, corrupted) -> None.
ReceiverCallback = Callable[[int, Transmission, bool], None]


class _TopologyBase:
    """Shared channel bookkeeping for both topologies."""

    def __init__(self, sim: Simulator, medl: Medl,
                 monitor: Optional[TraceMonitor] = None,
                 drop_probability: float = 0.0,
                 corrupt_probability: float = 0.0,
                 rng=None) -> None:
        self.sim = sim
        self.medl = medl
        self.monitor = monitor
        self.channels: List[Channel] = [
            Channel(sim, name=f"ch{index}", monitor=monitor,
                    drop_probability=drop_probability,
                    corrupt_probability=corrupt_probability,
                    rng=None if rng is None else rng.child(f"ch{index}"))
            for index in range(CHANNEL_COUNT)]
        self._receivers: List[ReceiverCallback] = []
        for index, channel in enumerate(self.channels):
            channel.subscribe(self._make_fanout(index))

    def _make_fanout(self, channel_index: int):
        def fanout(transmission: Transmission, corrupted: bool) -> None:
            # Receivers attach at wiring time (never detach), so no
            # defensive copy on the per-frame fan-out.
            for receiver in self._receivers:
                receiver(channel_index, transmission, corrupted)
        return fanout

    def attach_receiver(self, callback: ReceiverCallback) -> None:
        """Register a protocol-layer receiver for all channels."""
        self._receivers.append(callback)

    def send(self, source: str, frame: Frame, duration: float,
             shape: Optional[SignalShape] = None) -> None:
        raise NotImplementedError

    def _drive(self, source: str, channel_index: int,
               transmission: Transmission) -> None:
        """Inject one transmission into a single channel's gate."""
        raise NotImplementedError

    def send_skewed(self, source: str, frame: Frame, duration: float,
                    shape: Optional[SignalShape] = None,
                    skews: Optional[List[float]] = None) -> None:
        """Drive per-channel copies at staggered instants.

        A healthy TTP/C controller clocks the same transmission onto both
        channels simultaneously; a two-faced Byzantine clock shows each
        channel a different face by skewing one copy.  ``skews[i]`` is the
        reference-time delay of channel ``i``'s copy; each copy is its own
        :class:`Transmission` (start times differ), gated by the same
        guardian/coupler path as :meth:`send`.
        """
        sim = self.sim
        resolved_shape = shape or NOMINAL_SHAPE
        deferred: List[Tuple[float, int]] = []
        for index, skew in enumerate(skews or []):
            if index >= len(self.channels):
                break
            if skew < 0:
                raise ValueError(f"skews must be non-negative, got {skew!r}")
            if skew == 0:
                self._drive(source, index, Transmission(
                    frame=frame, source=source, start_time=sim.now,
                    duration=duration, shape=resolved_shape))
            else:
                deferred.append((skew, index))
        if not deferred:
            return
        # A single re-aimed event walks the skew ladder; all copies due
        # at one instant drive in channel order before re-aiming.
        deferred.sort()
        base = sim.now

        def fire() -> None:
            while deferred and base + deferred[0][0] <= sim.now:
                _, channel_index = deferred.pop(0)
                self._drive(source, channel_index, Transmission(
                    frame=frame, source=source, start_time=sim.now,
                    duration=duration, shape=resolved_shape))
            if deferred:
                sim.schedule_at(base + deferred[0][0], fire)

        sim.schedule_at(base + deferred[0][0], fire)


class BusTopology(_TopologyBase):
    """Two shared buses; each node has one local guardian per channel."""

    def __init__(self, sim: Simulator, medl: Medl,
                 monitor: Optional[TraceMonitor] = None,
                 guardian_faults: Optional[Dict[str, GuardianFault]] = None,
                 drop_probability: float = 0.0,
                 corrupt_probability: float = 0.0,
                 rng=None) -> None:
        super().__init__(sim, medl, monitor, drop_probability,
                         corrupt_probability, rng)
        guardian_faults = guardian_faults or {}
        #: guardians[node][channel_index]
        self.guardians: Dict[str, List[LocalBusGuardian]] = {}
        for node_name in medl.node_names():
            fault = guardian_faults.get(node_name, GuardianFault.NONE)
            self.guardians[node_name] = [
                LocalBusGuardian(sim, node_name, medl, channel,
                                 monitor=monitor, fault=fault)
                for channel in self.channels]

    def send(self, source: str, frame: Frame, duration: float,
             shape: Optional[SignalShape] = None) -> None:
        """Drive a frame through the node's guardians onto both buses."""
        # One immutable transmission rides both channels (channels track
        # and collide transmissions by identity, per channel).
        transmission = Transmission(frame=frame, source=source,
                                    start_time=self.sim.now,
                                    duration=duration,
                                    shape=shape or NOMINAL_SHAPE)
        for guardian in self.guardians[source]:
            guardian.transmit(transmission)

    def _drive(self, source: str, channel_index: int,
               transmission: Transmission) -> None:
        self.guardians[source][channel_index].transmit(transmission)

    def synchronize_guardians(self, round_start_ref_time: float) -> None:
        """Anchor every local guardian's slot schedule."""
        for guardians in self.guardians.values():
            for guardian in guardians:
                guardian.synchronize(round_start_ref_time)

    def node_activated(self, node_name: str, round_start_ref_time: float) -> None:
        """A node reached the active state: its guardians learn the grid.

        A local guardian gets its schedule phase from its own (now
        synchronized) controller -- it cannot divine the grid from bus
        traffic, which is precisely why it cannot police the startup phase
        (paper Section 2.2).
        """
        for guardian in self.guardians.get(node_name, []):
            guardian.synchronize(round_start_ref_time)


class StarTopology(_TopologyBase):
    """Two star couplers, one per channel, acting as central guardians."""

    def __init__(self, sim: Simulator, medl: Medl,
                 authority: CouplerAuthority = CouplerAuthority.SMALL_SHIFTING,
                 monitor: Optional[TraceMonitor] = None,
                 coupler_faults: Optional[List[CouplerFault]] = None,
                 replay_delay: Optional[float] = None,
                 replay_limit: Optional[int] = None,
                 drop_probability: float = 0.0,
                 corrupt_probability: float = 0.0,
                 rng=None) -> None:
        super().__init__(sim, medl, monitor, drop_probability,
                         corrupt_probability, rng)
        coupler_faults = coupler_faults or [CouplerFault.NONE] * CHANNEL_COUNT
        if len(coupler_faults) != CHANNEL_COUNT:
            raise ValueError(
                f"need {CHANNEL_COUNT} coupler fault entries, got {len(coupler_faults)}")
        faulty = [fault for fault in coupler_faults if fault is not CouplerFault.NONE]
        if len(faulty) > 1:
            raise ValueError(
                "the TTP/C fault hypothesis allows at most one faulty coupler")
        self.couplers: List[StarCoupler] = [
            StarCoupler(self.sim, name=f"coupler{index}", authority=authority,
                        medl=medl, channel=channel, monitor=monitor,
                        fault=coupler_faults[index],
                        replay_delay=replay_delay, replay_limit=replay_limit)
            for index, channel in enumerate(self.channels)]

    def send(self, source: str, frame: Frame, duration: float,
             shape: Optional[SignalShape] = None) -> None:
        """Drive a frame up both star-coupler uplinks."""
        transmission = Transmission(frame=frame, source=source,
                                    start_time=self.sim.now,
                                    duration=duration,
                                    shape=shape or NOMINAL_SHAPE)
        for coupler in self.couplers:
            coupler.receive_uplink(transmission)

    def _drive(self, source: str, channel_index: int,
               transmission: Transmission) -> None:
        self.couplers[channel_index].receive_uplink(transmission)

    def synchronize_couplers(self, round_start_ref_time: float) -> None:
        """Anchor both couplers' slot schedules."""
        for coupler in self.couplers:
            coupler.synchronize(round_start_ref_time)

    def node_activated(self, node_name: str, round_start_ref_time: float) -> None:
        """A node reached the active state: couplers without semantic
        self-anchoring (passive / time-windows) learn the grid now."""
        for coupler in self.couplers:
            if not coupler.synchronized:
                coupler.synchronize(round_start_ref_time)
