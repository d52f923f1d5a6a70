"""Online property monitors over the live event stream.

Each monitor is a :class:`repro.sim.monitor.TraceMonitor` subscriber that
evaluates an experiment verdict *incrementally*, in a single pass over the
events as they are emitted -- the runtime-monitoring counterpart of the
post-hoc trace queries the campaigns used to run.  The tests in
``tests/obs/`` compare every verdict with its post-hoc query over a
retained trace; the monitors themselves never retain the trace, so each
works unchanged against a bounded ring-buffer bus.

* :class:`VerdictMonitor` -- one per-node fold behind three verdicts: the
  fault-injection campaign's "victim" metric (EXP-S2/EXP-S4), the
  startup latency (EXP-S6: when did the whole cluster become active), and
  the paper's Section 5.1 property on the DES (no fault-free node is ever
  forced into the freeze state by the protocol).  A sampling rate below
  1.0 turns it into the sampling-based decentralized monitor network of
  :mod:`repro.obs.decentralized`.
* :class:`CollisionAttackMonitor` -- the adversarial collision families:
  how many jams an attacker fired, how many the guardians/couplers
  blocked, and whether any reached the medium and corrupted deliveries.
* :class:`FtaResilienceMonitor` -- per-round ensemble-precision verdicts
  against the eq. (10) drift-ratio budget: did Byzantine clocks capture
  the fault-tolerant average.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

from repro.obs.events import Event
from repro.sim.monitor import TraceMonitor
from repro.sim.rng import RandomStream

#: Freeze reasons imposed by the protocol (mirrors
#: ``repro.ttp.controller.PROTOCOL_FORCED_FREEZES`` without importing the
#: controller: monitors must be usable on imported JSONL streams too).
PROTOCOL_FORCED_REASONS = frozenset({"clique_error", "ack_failure"})


def _node_of(source: str) -> Optional[str]:
    """Node name of a ``node:X`` source, else ``None``."""
    prefix, _, name = source.partition(":")
    return name if prefix == "node" else None


class OnlineMonitor:
    """Base: a subscriber that can attach to / detach from an event bus."""

    def __init__(self) -> None:
        self._bus: Optional[TraceMonitor] = None

    def attach(self, bus: TraceMonitor) -> "OnlineMonitor":
        """Subscribe to ``bus``; returns ``self`` for chaining."""
        self._bus = bus
        bus.subscribe(self.on_event)
        return self

    def detach(self) -> None:
        """Unsubscribe from the attached bus (no-op if never attached)."""
        if self._bus is not None:
            self._bus.unsubscribe(self.on_event)
            self._bus = None

    def on_event(self, event: Event) -> None:
        raise NotImplementedError

    def replay(self, events: Sequence[Event]) -> "OnlineMonitor":
        """Feed a recorded stream (e.g. a JSONL import) through the
        monitor; returns ``self``."""
        for event in events:
            self.on_event(event)
        return self


@dataclass(frozen=True)
class PropertyViolation:
    """One observed violation of the Section 5.1 property."""

    time: float
    node: str
    reason: str


#: The per-node event kinds the verdict fold consumes.
_NODE_KINDS = {"state", "freeze", "activated", "cold_start_grid"}


class VerdictMonitor(OnlineMonitor):
    """The Section 5.1, victim and startup verdicts from one per-node fold.

    Every verdict reads the same per-node summary: current protocol state,
    last freeze reason, first activation time, activation anchor, the
    cold-start grid phases of fault-free nodes and the protocol-forced
    freezes of fault-free nodes.  The summary is folded from the
    ``state`` / ``freeze`` / ``activated`` / ``cold_start_grid`` events of
    the watched nodes only (``node:X`` sources), so the monitor is both the
    single central observer and, partitioned by node, the decentralized
    one: the folds are order-independent across nodes (set membership,
    ``min`` over grid phases, ``max`` over first activations).

    ``sampling_rate`` below 1.0 puts a seeded per-node Bernoulli filter in
    front of the fold (Bartocci's sampling-based decentralized
    monitoring): each node keeps a subsample of its own events, drawn from
    its own stream.  At 1.0 no stream exists and no draw is taken.
    ``healthy_nodes`` are the fault-free nodes: a faulty node's cold-start
    grids are not legitimate, and its freezes are not violations.
    """

    def __init__(self, node_names: Sequence[str], healthy_nodes: Set[str],
                 round_duration: float, grid_tolerance: float = 1.0,
                 sampling_rate: float = 1.0, seed: int = 0) -> None:
        super().__init__()
        if not round_duration > 0:
            raise ValueError(
                f"round_duration must be positive, got {round_duration!r}")
        if not grid_tolerance >= 0:
            raise ValueError(
                f"grid_tolerance must be >= 0, got {grid_tolerance!r}")
        if not 0.0 < sampling_rate <= 1.0:
            raise ValueError(
                f"sampling_rate must be in (0, 1], got {sampling_rate!r}")
        self.node_names = list(node_names)
        self.healthy_nodes = set(healthy_nodes)
        self.round_duration = round_duration
        self.grid_tolerance = grid_tolerance
        self.sampling_rate = sampling_rate
        self._watched = {f"node:{name}": name for name in self.node_names}
        self._samplers = (None if sampling_rate == 1.0 else
                          {name: RandomStream(seed=seed, path=f"obs/{name}")
                           for name in self.node_names})
        self.sampled_events = 0
        self.skipped_events = 0
        self._state: Dict[str, str] = {}
        self._freeze_reason: Dict[str, str] = {}
        self._first_active: Dict[str, float] = {}
        self._anchor: Dict[str, float] = {}
        self._legit_phases: List[float] = []
        self._violations: List[PropertyViolation] = []

    @classmethod
    def for_cluster(cls, cluster, sampling_rate: float = 1.0,
                    seed: int = 0) -> "VerdictMonitor":
        """A monitor of every node of a built (not yet run) cluster."""
        from repro.ttp.controller import NodeFaultBehavior

        healthy = {name for name, controller in cluster.controllers.items()
                   if controller.config.fault is NodeFaultBehavior.HEALTHY}
        instance = cls(node_names=list(cluster.controllers),
                       healthy_nodes=healthy,
                       round_duration=cluster.medl.round_duration(),
                       sampling_rate=sampling_rate, seed=seed)
        instance.attach(cluster.monitor)
        return instance

    def on_event(self, event: Event) -> None:
        kind = event.kind
        if kind not in _NODE_KINDS:
            return
        node = self._watched.get(event.source)
        if node is None:
            return
        if (self._samplers is not None
                and not self._samplers[node].bernoulli(self.sampling_rate)):
            self.skipped_events += 1
            return
        self.sampled_events += 1
        details = event.details
        if kind == "state":
            state = details["state"]
            self._state[node] = state
            if state == "active":
                self._first_active.setdefault(node, event.time)
        elif kind == "freeze":
            reason = details["reason"]
            self._state[node] = "freeze"
            self._freeze_reason[node] = reason
            if (node in self.healthy_nodes
                    and reason in PROTOCOL_FORCED_REASONS):
                self._violations.append(PropertyViolation(
                    time=event.time, node=node, reason=reason))
        elif kind == "activated":
            self._anchor[node] = details["round_start"]
        elif kind == "cold_start_grid" and node in self.healthy_nodes:
            self._legit_phases.append(
                details["round_start"] % self.round_duration)

    def victims(self) -> List[str]:
        """Fault-free nodes harmed so far, in ``node_names`` order.

        A healthy node is a victim when it is frozen by the protocol
        (clique-avoidance or acknowledgment failure), never activated, or
        anchored to a TDMA grid other than a legitimate one -- the
        definition of :meth:`repro.cluster.Cluster.healthy_victims`,
        derived from events instead of final controller state.
        """
        duration = self.round_duration
        victims = []
        for name in self.node_names:
            if name not in self.healthy_nodes:
                continue
            protocol_frozen = (
                self._state.get(name) == "freeze"
                and self._freeze_reason.get(name) in PROTOCOL_FORCED_REASONS)
            wrong_grid = False
            if self._legit_phases and name in self._anchor:
                phase = self._anchor[name] % duration
                distance = min(
                    min((phase - legit) % duration, (legit - phase) % duration)
                    for legit in self._legit_phases)
                wrong_grid = distance > self.grid_tolerance
            if protocol_frozen or wrong_grid or name not in self._anchor:
                victims.append(name)
        return victims

    @property
    def completed(self) -> bool:
        """Whether every watched node is active right now."""
        return all(self._state.get(name) == "active"
                   for name in self.node_names)

    def all_active_time(self) -> Optional[float]:
        """When the last node first became active (None while any node
        has yet to activate or has since left the active state)."""
        if not self.completed or not self._first_active:
            return None
        return max(self._first_active.values())

    @property
    def violations(self) -> List[PropertyViolation]:
        """Protocol-forced freezes of fault-free nodes, in (time, node)
        order: the paper's Section 5.1 property evaluated on the DES (the
        model checker's :func:`repro.model.properties.no_clique_freeze`)."""
        return sorted(self._violations,
                      key=lambda entry: (entry.time, entry.node))

    @property
    def holds(self) -> bool:
        """Whether the Section 5.1 property has held over the stream."""
        return not self._violations


@dataclass(frozen=True)
class RunnerIncident:
    """One retry or permanent failure the runner reported."""

    time: float
    index: int
    reason: str
    error: str


class RunnerHealthMonitor(OnlineMonitor):
    """Online health view of a resilient campaign run (:mod:`repro.exec`).

    Subscribes to the runner's ``task_started`` / ``task_retried`` /
    ``task_failed`` / ``checkpoint_written`` events and keeps the counts a
    dashboard (or an assertion in CI) wants: how many attempts ran, which
    tasks needed retries and why, whether anything permanently failed, and
    how many results reached the checkpoint.
    """

    def __init__(self) -> None:
        super().__init__()
        self.attempts = 0
        self.tasks_seen: Set[int] = set()
        self.retries: List[RunnerIncident] = []
        self.failures: List[RunnerIncident] = []
        self.checkpointed = 0

    def on_event(self, event: Event) -> None:
        if event.kind == "task_started":
            self.attempts += 1
            self.tasks_seen.add(event.details["index"])
        elif event.kind == "task_retried":
            detail = event.details
            self.retries.append(RunnerIncident(
                time=event.time, index=detail["index"],
                reason=detail["reason"], error=detail["error"]))
        elif event.kind == "task_failed":
            detail = event.details
            self.failures.append(RunnerIncident(
                time=event.time, index=detail["index"],
                reason=detail["reason"], error=detail["error"]))
        elif event.kind == "checkpoint_written":
            self.checkpointed += 1

    @property
    def healthy(self) -> bool:
        """Whether every task (so far) completed without permanent failure."""
        return not self.failures

    def retried_tasks(self) -> List[int]:
        """Distinct task indices that needed at least one retry, sorted."""
        return sorted({incident.index for incident in self.retries})


class CollisionAttackMonitor(OnlineMonitor):
    """Online verdict for the active collision-attack fault family.

    Tracks the attacker side (``collision_jam`` emissions) and the
    containment side: jams a guardian or coupler blocked before they
    reached a channel, and deliveries that completed corrupted once the
    attack was underway (the channel collision path marks every
    overlapped transmission corrupted).  ``attack_contained`` is the
    paper's Section 4 question -- did the topology keep the attacker's
    interference away from the healthy traffic.
    """

    _BLOCK_KINDS = frozenset({"blocked_out_of_window", "blocked_semantic",
                              "blocked_by_fault", "uplink_silenced"})

    def __init__(self, attackers: Sequence[str]) -> None:
        super().__init__()
        self.attackers = set(attackers)
        self.jams = 0
        self.targeted_jams = 0
        self.first_jam_time: Optional[float] = None
        self.blocked_jams = 0
        self.corrupted_deliveries = 0

    @classmethod
    def for_cluster(cls, cluster) -> "CollisionAttackMonitor":
        """Watch every collision attacker of a built (not yet run) cluster."""
        from repro.ttp.controller import NodeFaultBehavior

        attacking = (NodeFaultBehavior.COLLIDING_SENDER,
                     NodeFaultBehavior.MID_FRAME_JAMMER)
        attackers = [name for name, controller in cluster.controllers.items()
                     if controller.config.fault in attacking]
        instance = cls(attackers=attackers)
        instance.attach(cluster.monitor)
        return instance

    def on_event(self, event: Event) -> None:
        kind = event.kind
        if kind == "collision_jam":
            node = _node_of(event.source)
            if node is None or node not in self.attackers:
                return
            self.jams += 1
            if event.details["targeted"]:
                self.targeted_jams += 1
            if self.first_jam_time is None:
                self.first_jam_time = event.time
        elif kind == "tx_complete":
            if self.first_jam_time is not None and event.details["corrupted"]:
                self.corrupted_deliveries += 1
        elif kind in self._BLOCK_KINDS:
            if event.details["sender"] in self.attackers:
                self.blocked_jams += 1

    @property
    def attack_observed(self) -> bool:
        """Whether any jam was fired."""
        return self.jams > 0

    @property
    def attack_contained(self) -> bool:
        """Whether no delivery completed corrupted after the first jam.

        Meaningful once :attr:`attack_observed` is true; a benign run is
        vacuously contained.
        """
        return self.corrupted_deliveries == 0

    def verdict(self) -> Dict[str, object]:
        """Summary row for campaign tables and CI assertions."""
        return {"attackers": sorted(self.attackers),
                "jams": self.jams,
                "targeted_jams": self.targeted_jams,
                "blocked_jams": self.blocked_jams,
                "corrupted_deliveries": self.corrupted_deliveries,
                "contained": self.attack_contained}


@dataclass(frozen=True)
class PrecisionViolation:
    """One healthy node's FTA correction outside the eq. (10) budget."""

    time: float
    node: str
    correction: float


class FtaResilienceMonitor(OnlineMonitor):
    """Per-round ensemble-precision verdicts against the eq. (10) budget.

    Consumes the opt-in ``sync_round`` events (see
    ``ControllerConfig.emit_sync_rounds``): every honest node's once-per-
    round FTA correction.  Between resynchronizations an honest clock can
    legitimately drift ``fta_precision_budget(ppm_band, round)`` from the
    ensemble; a *larger* applied correction means the average was dragged
    by measurements no honest clock could have produced -- the FTA
    (``discard=k``) was captured by more than ``k`` Byzantine faces.
    """

    def __init__(self, watched_nodes: Sequence[str], budget: float) -> None:
        super().__init__()
        if budget <= 0:
            raise ValueError(f"budget must be positive, got {budget!r}")
        self.watched_nodes = set(watched_nodes)
        self.budget = budget
        self.rounds_checked = 0
        self.worst_correction = 0.0
        self.violations: List[PrecisionViolation] = []
        self.byzantine_nodes: Set[str] = set()

    @classmethod
    def for_cluster(cls, cluster, budget: Optional[float] = None,
                    reading_error: float = 0.0) -> "FtaResilienceMonitor":
        """Watch every fault-free node of a built (not yet run) cluster.

        Without an explicit ``budget`` the eq. (10) bound is derived from
        the cluster's own ppm band and round duration.
        """
        from repro.ttp.clock_sync import fta_precision_budget
        from repro.ttp.controller import NodeFaultBehavior

        watched = [name for name, controller in cluster.controllers.items()
                   if controller.config.fault is NodeFaultBehavior.HEALTHY]
        if budget is None:
            band = max((abs(ppm) for ppm in cluster.spec.node_ppm.values()),
                       default=0.0)
            budget = fta_precision_budget(band, cluster.medl.round_duration(),
                                          reading_error)
            if budget <= 0:
                # A zero-drift cluster still applies sub-float-epsilon
                # corrections; give the gate a nonzero floor.
                budget = 1e-9
        instance = cls(watched_nodes=watched, budget=budget)
        instance.attach(cluster.monitor)
        return instance

    def on_event(self, event: Event) -> None:
        kind = event.kind
        if kind == "sync_round":
            node = _node_of(event.source)
            if node is None or node not in self.watched_nodes:
                return
            correction = event.details["correction"]
            self.rounds_checked += 1
            if abs(correction) > abs(self.worst_correction):
                self.worst_correction = correction
            if abs(correction) > self.budget:
                self.violations.append(PrecisionViolation(
                    time=event.time, node=node, correction=correction))
        elif kind == "byzantine_tick":
            node = _node_of(event.source)
            if node is not None:
                self.byzantine_nodes.add(node)

    @property
    def holds(self) -> bool:
        """Whether every checked round stayed inside the budget."""
        return not self.violations

    def verdict(self) -> Dict[str, object]:
        """Summary row for campaign tables and CI assertions."""
        return {"budget": self.budget,
                "rounds_checked": self.rounds_checked,
                "worst_correction": self.worst_correction,
                "violations": len(self.violations),
                "byzantine_nodes": sorted(self.byzantine_nodes),
                "holds": self.holds}

