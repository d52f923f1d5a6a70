"""Model <-> simulation conformance (EXP-S3 as a reusable subsystem).

The model checker proves the out-of-slot failure *possible* (EXP-V1) and
produces the paper's two counterexample traces (EXP-T1/T2); the
discrete-event simulation shows the same failure *happening* at bit and
microsecond granularity.  This module makes that cross-validation a
first-class operation:

1. :class:`DesAbstraction` collapses a typed DES event stream
   (:mod:`repro.obs.events`) to the model checker's slot-granularity
   vocabulary: per-node protocol state paths, integration mechanisms, and
   out-of-slot replay counts.
2. :func:`check_conformance` compares the abstraction against any
   :class:`repro.modelcheck.trace.Trace` and reports slot-level agreement
   as a list of named :class:`AgreementCheck` entries.
3. :data:`SCENARIOS` carries the tuned DES realizations of both paper
   counterexamples -- the duplicated cold-start frame (trace 1) and the
   duplicated C-state frame (trace 2) -- each with the replay budget
   limited to the single error the paper's analysis allows.

The scenario timing constants were found empirically: the replay delay
positions the faulty coupler's one replay inside a *silent* slot of the
victim's listen window (in a fully running cluster every slot is busy, so
an out-of-slot replay always collides and is judged invalid -- which is
why trace 2 needs a partially started cluster, exactly as in the model).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.cluster import Cluster, ClusterSpec
from repro.core.authority import CouplerAuthority
from repro.model.config import ModelConfig
from repro.model.scenarios import trace1_scenario, trace2_scenario
from repro.modelcheck.trace import Trace
from repro.network.star_coupler import CouplerFault
from repro.obs.events import Event

#: DES freeze reasons that map to the model's protocol-forced freeze state.
_FORCED_FREEZE_REASONS = frozenset({"clique_error"})

#: A node powered on this late never runs -- the DES rendering of a model
#: node that stays in the freeze state for the whole trace.
NEVER = 1e9


def _collapse(values: Iterable[str]) -> List[str]:
    """Deduplicate consecutive repeats (slot-granularity state path)."""
    path: List[str] = []
    for value in values:
        if not path or path[-1] != value:
            path.append(value)
    return path


def phase_path(states: Iterable[str]) -> List[str]:
    """A state path collapsed to protocol *phases*: ``active`` and
    ``passive`` both become ``integrated`` (the model's INTEGRATED_STATES).

    The DES activates a passive node at its own slot before the clique
    test can vote it out (the activation simplification documented in
    DESIGN.md), while the model tests the victim before it ever sends --
    at phase granularity both layers agree, and that is the granularity
    the paper's property speaks at: ``(active|passive) -> not freeze``.
    """
    return _collapse("integrated" if state in ("active", "passive") else state
                     for state in states)


# -- model-side abstraction ---------------------------------------------------


def model_state_path(trace: Trace, node_name: str) -> List[str]:
    """Collapsed protocol-state path of one node along the trace."""
    return _collapse(trace.variable_history(f"{node_name.lower()}_state"))


def model_replay_labels(trace: Trace) -> List[Dict[str, str]]:
    """Transition labels of the out-of-slot fault steps."""
    return [label for label in trace.labels()
            if "out_of_slot" in str(label.get("fault", ""))]


def model_replayed_kind(trace: Trace) -> Optional[str]:
    """Frame kind the faulty coupler replays (``cold_start``/``c_state``)."""
    for label in model_replay_labels(trace):
        for channel in ("ch0", "ch1"):
            content = str(label.get(channel, "none"))
            if content != "none":
                return content.split("#", 1)[0]
    return None


def model_clique_frozen(trace: Trace, node_names: Iterable[str]) -> List[str]:
    """Nodes in the protocol-forced freeze state at the end of the trace."""
    final = trace.final_view()
    return [name for name in node_names
            if final[f"{name.lower()}_state"] == "freeze_clique"]


# -- DES-side abstraction -----------------------------------------------------


class DesAbstraction:
    """A DES event stream reduced to the model checker's state variables.

    Consumes ``state``/``freeze``/``integrated``/``out_of_slot_replay``
    events (live from a bus subscription via :meth:`on_event`, or recorded
    via :meth:`from_events`) and exposes, per node, the collapsed protocol
    state path in the model's vocabulary -- a DES freeze with the
    ``clique_error`` reason becomes the model's ``freeze_clique`` state.
    """

    def __init__(self) -> None:
        self._paths: Dict[str, List[str]] = {}
        self._via: Dict[str, str] = {}
        self.replayed_kinds: List[str] = []

    @classmethod
    def from_events(cls, events: Iterable[Event]) -> "DesAbstraction":
        instance = cls()
        for event in events:
            instance.on_event(event)
        return instance

    def on_event(self, event: Event) -> None:
        prefix, _, name = event.source.partition(":")
        if prefix == "coupler" and event.kind == "out_of_slot_replay":
            self.replayed_kinds.append(event.details["frame_kind"])
            return
        if prefix != "node":
            return
        if event.kind == "state":
            self._extend(name, event.details["state"])
        elif event.kind == "freeze":
            reason = event.details["reason"]
            self._extend(name, "freeze_clique"
                         if reason in _FORCED_FREEZE_REASONS else "freeze")
        elif event.kind == "integrated" and name not in self._via:
            self._via[name] = event.details["via"]

    def _extend(self, node: str, state: str) -> None:
        path = self._paths.setdefault(node, ["freeze"])
        if path[-1] != state:
            path.append(state)

    def state_path(self, node: str) -> List[str]:
        """Collapsed state path (every node starts in ``freeze``)."""
        return list(self._paths.get(node, ["freeze"]))

    def current_state(self, node: str) -> str:
        return self.state_path(node)[-1]

    def integration_via(self, node: str) -> Optional[str]:
        """How the node first integrated (``cold_start``/``c_state``)."""
        return self._via.get(node)

    def clique_frozen(self, node_names: Iterable[str]) -> List[str]:
        """Nodes currently in the protocol-forced freeze state."""
        return [name for name in node_names
                if self.current_state(name) == "freeze_clique"]

    @property
    def replay_count(self) -> int:
        return len(self.replayed_kinds)


# -- agreement checks ---------------------------------------------------------


@dataclass(frozen=True)
class AgreementCheck:
    """One compared quantity: the model's value vs the simulation's."""

    name: str
    model_value: str
    des_value: str

    @property
    def agrees(self) -> bool:
        return self.model_value == self.des_value


@dataclass
class ConformanceReport:
    """Slot-level agreement between a counterexample and a DES run."""

    scenario: str
    trace_steps: int
    model_victim: Optional[str]
    des_victim: Optional[str]
    checks: List[AgreementCheck] = field(default_factory=list)

    @property
    def conforms(self) -> bool:
        return all(check.agrees for check in self.checks)

    def summary(self) -> str:
        """Multi-line rendering for CLI output and CI logs."""
        verdict = "CONFORMS" if self.conforms else "DIVERGES"
        lines = [f"{self.scenario}: {verdict} "
                 f"(model counterexample: {self.trace_steps} slots, "
                 f"victim {self.model_victim}; DES victim {self.des_victim})"]
        for check in self.checks:
            marker = "ok " if check.agrees else "DIFF"
            lines.append(f"  [{marker}] {check.name}: "
                         f"model={check.model_value} des={check.des_value}")
        return "\n".join(lines)


def check_conformance(trace: Trace, events: Iterable[Event],
                      node_names: Iterable[str],
                      scenario: str = "conformance") -> ConformanceReport:
    """Compare a model counterexample against a DES event stream.

    The DES stream is abstracted to slot granularity and four quantities
    are checked for agreement: the property verdict, the victim's
    collapsed protocol-state path, the integration mechanism the victim
    was captured through, and the number of out-of-slot replays spent.
    """
    node_names = list(node_names)
    abstraction = (events if isinstance(events, DesAbstraction)
                   else DesAbstraction.from_events(events))

    model_frozen = model_clique_frozen(trace, node_names)
    des_frozen = abstraction.clique_frozen(node_names)
    model_victim = model_frozen[0] if model_frozen else None
    # The counterexample is existential ("some node can be captured like
    # this"), so the DES witness is the frozen node that followed the
    # model victim's path -- falling back to the first frozen node, whose
    # mismatching path the state-path check will then surface.
    des_victim = des_frozen[0] if des_frozen else None
    if model_victim is not None:
        victim_path = phase_path(model_state_path(trace, model_victim))
        for name in des_frozen:
            if phase_path(abstraction.state_path(name)) == victim_path:
                des_victim = name
                break

    checks = [AgreementCheck(
        name="property-verdict",
        model_value="violated" if model_frozen else "holds",
        des_value="violated" if des_frozen else "holds")]

    if model_victim is not None and des_victim is not None:
        checks.append(AgreementCheck(
            name="victim-phase-path",
            model_value=" > ".join(
                phase_path(model_state_path(trace, model_victim))),
            des_value=" > ".join(
                phase_path(abstraction.state_path(des_victim)))))
        checks.append(AgreementCheck(
            name="integration-mechanism",
            model_value=str(model_replayed_kind(trace)),
            des_value=str(abstraction.integration_via(des_victim))))
    checks.append(AgreementCheck(
        name="replay-count",
        model_value=str(len(model_replay_labels(trace))),
        des_value=str(abstraction.replay_count)))

    return ConformanceReport(scenario=scenario, trace_steps=len(trace),
                             model_victim=model_victim, des_victim=des_victim,
                             checks=checks)


# -- DES realizations of the paper's counterexamples --------------------------


@dataclass(frozen=True)
class ReplayScenario:
    """A DES cluster configuration that realizes one paper counterexample."""

    name: str
    description: str
    model_config_factory: object
    power_on_delays: Tuple[Tuple[str, float], ...] = ()
    replay_delay: Optional[float] = None
    replay_limit: int = 1
    rounds: float = 30.0

    def model_config(self) -> ModelConfig:
        return self.model_config_factory()

    def build_cluster(self,
                      monitor_capacity: Optional[int] = None) -> Cluster:
        """A fresh, powered-off cluster with the faulty coupler wired in."""
        spec = ClusterSpec(
            topology="star",
            authority=CouplerAuthority.FULL_SHIFTING,
            coupler_faults=[CouplerFault.OUT_OF_SLOT, CouplerFault.NONE],
            coupler_replay_delay=self.replay_delay,
            coupler_replay_limit=self.replay_limit,
            power_on_delays=dict(self.power_on_delays),
            monitor_capacity=monitor_capacity)
        return Cluster(spec)

    def run(self) -> Cluster:
        """Build, power on, and run the scenario to its horizon."""
        cluster = self.build_cluster()
        cluster.power_on()
        cluster.run(rounds=self.rounds)
        return cluster


#: EXP-T1 on the DES: all four nodes start; the faulty coupler replays the
#: cold-starter's frame one slot late and listeners integrate on the stale
#: duplicate (the paper's trace 1 mechanism).
TRACE1_REPLAY = ReplayScenario(
    name="trace1",
    description="duplicated cold-start frame captures the listeners",
    model_config_factory=trace1_scenario)

#: EXP-T2 on the DES: only A and C start (D stays off, as in the model
#: trace, where D never leaves freeze), so half the slots are silent; node
#: B powers on late and the coupler's single replay drops a stale C-state
#: frame into a silent slot of B's listen window (the paper's trace 2
#: mechanism: capture through a duplicated C-state frame).
TRACE2_REPLAY = ReplayScenario(
    name="trace2",
    description="duplicated C-state frame captures a late integrator",
    model_config_factory=trace2_scenario,
    power_on_delays=(("A", 0.0), ("B", 1200.0), ("C", 37.0), ("D", NEVER)),
    replay_delay=700.0)

SCENARIOS: Dict[str, ReplayScenario] = {
    scenario.name: scenario for scenario in (TRACE1_REPLAY, TRACE2_REPLAY)}


def conform_scenario(name: str, engine: str = "auto",
                     trace: Optional[Trace] = None) -> ConformanceReport:
    """Replay one paper counterexample on the DES and check agreement.

    Model-checks the scenario's configuration (unless a ``trace`` is
    supplied), runs the tuned DES realization, abstracts its event stream,
    and returns the slot-level agreement report.
    """
    try:
        scenario = SCENARIOS[name]
    except KeyError:
        raise ValueError(f"unknown conformance scenario {name!r} "
                         f"(have {', '.join(sorted(SCENARIOS))})") from None
    if trace is None:
        from repro.core.verification import verify_config

        result = verify_config(scenario.model_config(), engine=engine)
        if result.counterexample is None:
            raise RuntimeError(f"scenario {name!r} produced no counterexample "
                               "to replay")
        trace = result.counterexample
    cluster = scenario.run()
    return check_conformance(trace, cluster.monitor.records,
                             node_names=list(cluster.controllers),
                             scenario=name)
