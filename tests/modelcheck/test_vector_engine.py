"""Differential tests: the vectorized engine must agree with the packed
engine -- same verdicts, same counterexample lengths, and concrete
counterexamples that replay step by step through the scalar model -- on
the paper's own configurations.  It walks the packed engine's own search
and differs only in counting the whole violating level.  The vectorized
path is an optimisation, never a semantics change.  The tests at the end
pin which engine ``auto`` picks."""

import warnings

import pytest

from repro.core.authority import CouplerAuthority, all_authorities
from repro.core.verification import (expected_verdicts, verify_all_authorities,
                                     verify_authority, verify_config)
from repro.model.properties import no_clique_freeze
from repro.model.scenarios import scenario_for_authority
from repro.model.system_model import TTAStartupModel
from repro.modelcheck.checker import InvariantChecker, check_invariant
from repro.modelcheck.model import ExplicitTransitionSystem
from repro.modelcheck.state import StateSpace, Variable

pytest.importorskip("numpy", exc_type=ImportError)


def run_engine(config, engine):
    system = TTAStartupModel(config)
    checker = InvariantChecker(system, engine=engine)
    return checker.check(no_clique_freeze(config))


def observable(result):
    """Every field of a check but ``engine`` and the wall-clock time."""
    steps = (None if result.counterexample is None else
             [(step.state, step.label)
              for step in result.counterexample.steps])
    return (result.holds, result.truncated, result.states_explored,
            result.transitions_explored, result.depth_reached, steps)


class ScalarOnly:
    """The wrapped model minus its batch path (the word layout the vector
    kernel reads)."""

    def __init__(self, system):
        self._system = system

    def __getattr__(self, name):
        if name == "packed_geometry":
            raise AttributeError(name)
        return getattr(self._system, name)


def assert_concrete_counterexample(config, trace):
    """The trace must be a real path of the scalar model: starts in an
    initial state, follows actual transitions, ends in a violation."""
    system = TTAStartupModel(config)
    states = [step.state for step in trace.steps]
    assert states[0] in set(system.initial_states())
    for current, following in zip(states, states[1:]):
        targets = {transition.target
                   for transition in system.successors(current)}
        assert following in targets
    invariant = no_clique_freeze(config)
    assert not invariant(system.codec.view(system.codec.pack(states[-1])))


def assert_equivalent(packed_result, vector_result, config):
    assert vector_result.engine == "vectorized"
    assert vector_result.holds == packed_result.holds
    assert vector_result.truncated == packed_result.truncated
    if packed_result.counterexample is None:
        assert vector_result.counterexample is None
        # No violation: both engines visited the full reachable set.
        assert (vector_result.states_explored
                == packed_result.states_explored
                == run_engine(config, "tuple").states_explored)
    else:
        assert vector_result.counterexample is not None
        assert len(vector_result.counterexample) == \
            len(packed_result.counterexample)
        assert_concrete_counterexample(config, vector_result.counterexample)


@pytest.mark.parametrize("authority", all_authorities(),
                         ids=[a.value for a in all_authorities()])
def test_vectorized_matches_packed_on_verification_matrix(authority):
    config = scenario_for_authority(authority)
    packed_result = run_engine(config, "packed")
    vector_result = run_engine(config, "vectorized")
    assert_equivalent(packed_result, vector_result, config)
    assert vector_result.holds == expected_verdicts()[authority]
    # Both runs are the packed engine's search; only a violating level's
    # state count may differ (the vectorized engine counts the whole
    # level).
    exact, vector = observable(packed_result), observable(vector_result)
    if packed_result.holds:
        assert vector == exact
    else:
        assert vector[:2] + vector[3:] == exact[:2] + exact[3:]
        assert vector[2] > exact[2]


def test_vectorized_respects_max_states_truncation():
    config = scenario_for_authority(CouplerAuthority.PASSIVE)
    system = TTAStartupModel(config)
    checker = InvariantChecker(system, max_states=100, engine="vectorized")
    result = checker.check(no_clique_freeze(config))
    assert result.truncated
    assert result.holds  # no violation found within the budget
    assert result.states_explored <= 100


def test_vectorized_falls_back_for_systems_without_batch_path():
    """Systems without a native packed/batch path degrade to the packed
    adapter with a warning, not an error."""
    space = StateSpace([Variable("n", domain=tuple(range(12)))])
    transitions = {(value,): [((value + 1,), {"step": value})]
                   for value in range(11)}
    transitions[(11,)] = []
    system = ExplicitTransitionSystem(space, [(0,)], transitions)
    with pytest.warns(RuntimeWarning, match="batch"):
        result = check_invariant(system, lambda view: view.n < 7,
                                 engine="vectorized")
    assert result.engine == "packed"
    assert len(result.counterexample) == 7


def test_verify_authority_engine_and_symmetry_plumbing():
    run = verify_authority(CouplerAuthority.FULL_SHIFTING, engine="vectorized")
    assert run.check.engine == "vectorized"
    assert not run.property_holds
    assert_concrete_counterexample(run.config, run.counterexample)


def test_verify_all_authorities_vectorized_matrix(monkeypatch):
    """``jobs`` means one thing for every engine: the vectorized matrix
    fans its four checks out through a :class:`TaskRunner` pool, and the
    verdicts and counts match the serial engine."""
    import repro.exec

    runs = []

    class PooledRunner(repro.exec.TaskRunner):
        def run(self, function, tasks):
            self.force_pool = True  # a real pool even on a 1-CPU host
            report = super().run(function, tasks)
            runs.append((self.max_workers, self.pool_engaged,
                         [task[3] for task in tasks]))
            return report

    monkeypatch.setattr(repro.exec, "TaskRunner", PooledRunner)
    results = verify_all_authorities(engine="vectorized", jobs=2)
    assert runs == [(2, True, ["vectorized"] * 4)]
    verdicts = {authority: result.property_holds
                for authority, result in results.items()}
    assert verdicts == expected_verdicts()
    assert all(result.check.engine == "vectorized"
               for result in results.values())
    assert [result.check.states_explored for result in results.values()] \
        == [14772, 14772, 14772, 21403]


@pytest.mark.parametrize("jobs", [None, 2])
def test_verify_all_authorities_refuses_unrepresentable_layout(jobs):
    """At slots=5 the node blocks need 81 bits: the vectorized matrix
    raises ``OverflowError`` itself, before any task reaches the runner,
    instead of four failed tasks wrapped in ``TaskExecutionError``."""

    class NoTasks:
        def map(self, function, tasks):
            raise AssertionError("a task was scheduled")

    with pytest.raises(OverflowError, match="slots=5"):
        verify_all_authorities(slots=5, engine="vectorized", jobs=jobs)
    with pytest.raises(OverflowError, match="63-bit"):
        verify_all_authorities(slots=5, engine="vectorized", runner=NoTasks())


def test_auto_engine_selects_the_array_engine():
    """With numpy, ``auto`` runs the array engine -- silently, and with
    the packed engine's counts."""
    config = scenario_for_authority(CouplerAuthority.PASSIVE)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = verify_config(config, engine="auto")
    assert result.check.engine == "vectorized"
    assert result.check.states_explored == 14772


@pytest.mark.parametrize("make_system", [
    lambda: TTAStartupModel(scenario_for_authority(CouplerAuthority.PASSIVE,
                                                   slots=5)),
    lambda: ScalarOnly(TTAStartupModel(scenario_for_authority(
        CouplerAuthority.PASSIVE))),
], ids=["slots5-too-wide", "no-batch-path"])
def test_auto_engine_falls_back_to_packed(make_system):
    """Node blocks wider than uint64 (slots=5) or a system without a
    batch path: ``auto`` runs the scalar packed engine, without a
    warning."""
    system = make_system()
    invariant = no_clique_freeze(system.config)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = InvariantChecker(system, max_states=500).check(invariant)
    packed = InvariantChecker(system, max_states=500,
                              engine="packed").check(invariant)
    assert result.engine == "packed"
    assert observable(result) == observable(packed)


def test_conformance_replays_decanonicalized_counterexample():
    """EXP-S3 through the vectorized engine: the replayed counterexample
    is a concrete run, so the DES replay agrees slot by slot exactly as
    with the packed engine."""
    from repro.conformance import conform_scenario

    packed_report = conform_scenario("trace1", engine="packed")
    vector_report = conform_scenario("trace1", engine="vectorized")
    assert vector_report.conforms == packed_report.conforms
    assert vector_report.conforms
    assert vector_report.trace_steps == packed_report.trace_steps
    assert vector_report.model_victim == packed_report.model_victim
