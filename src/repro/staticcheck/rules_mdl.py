"""MDL -- the transition-system linter.

Where DET/EVT/SIM read source code, MDL reads the *formal model*: it
loads the TTA startup model for a coupler-authority scenario, computes
the exact reachable state space (deduplicating through the packed
integer codec of :mod:`repro.modelcheck.encode`, the same encoding the
verification engine searches), and reports structural dead weight --
the model-hygiene questions an SMV user asks alongside the properties:

======== ==============================================================
MDL003   never-written state variable: constant across the entire
         reachable space (dead state the packed encoding still pays for)
MDL004   unreachable enum value: a declared symbolic domain value no
         reachable state carries
======== ==============================================================

A dead fault transition or a never-fired guard changes the state counts
and verdicts the model-checking tests pin, so the tests, not the linter,
catch those.

Findings carry the synthetic path ``model:<scenario>`` and line 0; their
``item`` token (``var:a_failed``, ``a_state=freeze_clique``) is what the
baseline matches.  The committed repository baseline deliberately
*keeps* several MDL004 entries: ``freeze_clique`` being unreachable
below full-shifting authority is the paper's Section 5 verdict,
mechanically re-derived on every lint run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.staticcheck.findings import Finding

#: Default model size for lint runs: 3 slots keeps the four authority
#: scenarios under ~10k states total while exercising every model rule.
DEFAULT_SLOTS = 3

#: Hard cap on explored states per scenario; the linter refuses to guess
#: on a truncated space.
DEFAULT_MAX_STATES = 500_000


class ModelLintError(RuntimeError):
    """Raised when a scenario exceeds the reachability budget."""


@dataclass
class ModelAnalysis:
    """What one exhaustive reachability pass learns about a model."""

    scenario: str
    states: int = 0
    #: Variable name -> set of reachable values.
    reachable_values: Dict[str, Set[object]] = field(default_factory=dict)


def analyze_model(config, scenario: str,
                  max_states: int = DEFAULT_MAX_STATES) -> ModelAnalysis:
    """Exhaustive BFS over one scenario, collecting MDL evidence.

    The seen-set holds packed integer codes from the model's
    :class:`~repro.modelcheck.encode.StateCodec` -- the verification
    engine's own representation.
    """
    from repro.model.system_model import TTAStartupModel

    model = TTAStartupModel(config)
    space = model.space
    values: List[Set[object]] = [set() for _ in space.variables]
    pack = model.codec.pack

    seen: Set[int] = set()
    frontier: List[tuple] = []
    for state in model.initial_states():
        code = pack(state)
        if code not in seen:
            seen.add(code)
            frontier.append(state)

    while frontier:
        next_frontier: List[tuple] = []
        for state in frontier:
            for position, value in enumerate(state):
                values[position].add(value)
            for transition in model.successors(state):
                code = pack(transition.target)
                if code not in seen:
                    if len(seen) >= max_states:
                        raise ModelLintError(
                            f"scenario {scenario!r} exceeds the MDL "
                            f"reachability budget of {max_states} states")
                    seen.add(code)
                    next_frontier.append(transition.target)
        frontier = next_frontier

    return ModelAnalysis(
        scenario=scenario, states=len(seen),
        reachable_values={variable.name: values[position]
                          for position, variable in enumerate(space.variables)})


def model_findings(config, scenario: str,
                   max_states: int = DEFAULT_MAX_STATES) -> List[Finding]:
    """Run MDL003 and MDL004 on one model configuration."""
    from repro.model.system_model import TTAStartupModel

    analysis = analyze_model(config, scenario, max_states=max_states)
    path = f"model:{scenario}"
    findings: List[Finding] = []
    for variable in TTAStartupModel(config).space.variables:
        reachable = analysis.reachable_values[variable.name]
        if len(reachable) == 1:
            only = next(iter(reachable))
            findings.append(Finding(
                rule="MDL003", path=path, line=0, column=0,
                message=(f"never-written state variable {variable.name!r}: "
                         f"holds {only!r} across all {analysis.states} "
                         f"reachable states (dead state the packed encoding "
                         f"still pays for)"),
                severity="warning",
                item=f"var:{variable.name}"))
        for value in variable.domain or ():
            # Enum hygiene covers symbolic values; numeric range domains
            # (slots, timeouts, counters) are legitimately sparse.
            if not isinstance(value, (str, bool)):
                continue
            if value not in reachable:
                findings.append(Finding(
                    rule="MDL004", path=path, line=0, column=0,
                    message=(f"unreachable enum value: variable "
                             f"{variable.name!r} never carries declared "
                             f"value {value!r} in {analysis.states} "
                             f"reachable states"),
                    severity="warning",
                    item=f"{variable.name}={value}"))
    return findings


def default_scenarios(slots: int = DEFAULT_SLOTS) -> List[Tuple[str, object]]:
    """(name, config) for the four authority levels of the paper."""
    from repro.core.authority import all_authorities
    from repro.model.scenarios import scenario_for_authority

    return [(authority.value,
             scenario_for_authority(authority, slots=slots))
            for authority in all_authorities()]


def run_model_rules(slots: int = DEFAULT_SLOTS,
                    max_states: int = DEFAULT_MAX_STATES) -> List[Finding]:
    """MDL findings over the default per-authority scenario matrix."""
    findings: List[Finding] = []
    for name, config in default_scenarios(slots):
        findings.extend(model_findings(config, name, max_states=max_states))
    return findings


#: Rule metadata for emitters (SARIF rule table, --rules selection).
MDL_RULE_INFO = {
    "MDL003": "never-written state variable (constant over reachability)",
    "MDL004": "unreachable enum value in a declared symbolic domain",
}
