"""Tests for the parallel fan-out layer.

The contract under test: parallelism never changes results.  Pools are
forced on (``force_pool=True``) to exercise the real spawn/pickle path
even on single-core CI hosts, and forced off (``max_workers=1``,
simulated pool failures) to cover the serial fallbacks.
"""

from functools import partial

import pytest

from repro.core.verification import verify_all_authorities
from repro.faults.campaign import run_campaign
from repro.model.properties import no_clique_freeze
from repro.model.scenarios import (trace1_scenario,
                                   unconstrained_full_shifting)
from repro.model.system_model import TTAStartupModel
from repro.modelcheck import parallel as parallel_module
from repro.modelcheck.parallel import (ParallelVerifier, available_cpus,
                                       monte_carlo_parallel,
                                       verify_authorities_parallel)
from repro.modelcheck.simulate import monte_carlo_check


def _square(value):
    return value * value


def _matrix_signature(results):
    return [(authority.value, result.property_holds,
             result.check.states_explored,
             None if result.counterexample is None
             else [(s.state, s.label) for s in result.counterexample.steps])
            for authority, result in results.items()]


# ---------------------------------------------------------------------------
# ParallelVerifier mechanics
# ---------------------------------------------------------------------------

def test_map_serial_when_single_worker():
    verifier = ParallelVerifier(max_workers=1)
    assert verifier.map(_square, [1, 2, 3]) == [1, 4, 9]
    assert not verifier.pool_engaged
    assert verifier.fallback_reason == "single worker"


def test_map_uses_pool_when_forced():
    verifier = ParallelVerifier(max_workers=2, force_pool=True)
    assert verifier.map(_square, list(range(8))) == [n * n for n in range(8)]
    assert verifier.pool_engaged
    assert verifier.fallback_reason is None


def test_map_preserves_order():
    verifier = ParallelVerifier(max_workers=2, force_pool=True)
    values = list(range(20))
    assert verifier.map(_square, values) == [_square(v) for v in values]


def test_effective_workers_capped_at_cpu_count():
    verifier = ParallelVerifier(max_workers=max(available_cpus() * 4, 8))
    assert verifier.effective_workers <= available_cpus()


def test_force_pool_ignores_cpu_cap():
    verifier = ParallelVerifier(max_workers=3, force_pool=True)
    assert verifier.effective_workers == 3


def test_invalid_worker_count_rejected():
    with pytest.raises(ValueError, match="max_workers"):
        ParallelVerifier(max_workers=0).map(_square, [1])


def test_unpicklable_work_falls_back_to_serial():
    verifier = ParallelVerifier(max_workers=2, force_pool=True)
    assert verifier.map(lambda v: v + 1, [1, 2, 3]) == [2, 3, 4]
    assert not verifier.pool_engaged
    assert verifier.fallback_reason is not None


def test_broken_pool_falls_back_to_serial(monkeypatch):
    class ExplodingPool:
        def __init__(self, max_workers):
            raise OSError("no processes on this host")

    monkeypatch.setattr(parallel_module, "ProcessPoolExecutor", ExplodingPool)
    verifier = ParallelVerifier(max_workers=2, force_pool=True)
    assert verifier.map(_square, [1, 2, 3]) == [1, 4, 9]
    assert not verifier.pool_engaged
    assert "OSError" in verifier.fallback_reason


# ---------------------------------------------------------------------------
# Verification matrix equivalence
# ---------------------------------------------------------------------------

def test_matrix_parallel_identical_to_serial():
    serial = verify_all_authorities()
    verifier = ParallelVerifier(max_workers=2, force_pool=True)
    pooled = verify_authorities_parallel(verifier=verifier)
    assert verifier.pool_engaged
    assert _matrix_signature(pooled) == _matrix_signature(serial)


def test_matrix_jobs_one_is_serial():
    serial = verify_all_authorities()
    jobs_one = verify_all_authorities(jobs=1)
    assert _matrix_signature(jobs_one) == _matrix_signature(serial)


@pytest.mark.parametrize("engine, imported", [("auto", True), ("packed", False)])
def test_matrix_fan_out_imports_numpy_before_the_pool(monkeypatch, engine,
                                                       imported):
    """numpy loads on first use; the parent loads it before workers fork
    from it, so they inherit it instead of each importing it."""
    from repro.modelcheck import encode

    class Recorder:
        def map(self, function, tasks):
            self.numpy_tried = encode._np is not encode._UNTRIED
            return [None] * len(tasks)

    monkeypatch.setattr(encode, "_np", encode._UNTRIED)
    recorder = Recorder()
    verify_authorities_parallel(engine=engine, runner=recorder)
    assert recorder.numpy_tried is imported


# ---------------------------------------------------------------------------
# Monte-Carlo equivalence
# ---------------------------------------------------------------------------

def test_monte_carlo_parallel_identical_to_serial():
    config = unconstrained_full_shifting()
    serial = monte_carlo_check(TTAStartupModel(config),
                               no_clique_freeze(config),
                               walks=40, max_depth=30, seed=11)
    pooled = monte_carlo_parallel(partial(TTAStartupModel, config),
                                  partial(no_clique_freeze, config),
                                  walks=40, max_depth=30, seed=11,
                                  verifier=ParallelVerifier(max_workers=2,
                                                            force_pool=True))
    assert pooled.violations == serial.violations
    assert pooled.total_steps == serial.total_steps
    assert pooled.shortest_violation_depth == serial.shortest_violation_depth
    if serial.first_witness is None:
        assert pooled.first_witness is None
    else:
        assert ([step.state for step in pooled.first_witness.steps]
                == [step.state for step in serial.first_witness.steps])


def test_monte_carlo_parallel_rejects_zero_walks():
    config = trace1_scenario()
    with pytest.raises(ValueError, match="at least one walk"):
        monte_carlo_parallel(partial(TTAStartupModel, config),
                             partial(no_clique_freeze, config), walks=0)


def test_monte_carlo_more_workers_than_walks():
    config = unconstrained_full_shifting()
    serial = monte_carlo_check(TTAStartupModel(config),
                               no_clique_freeze(config),
                               walks=3, max_depth=15, seed=2)
    pooled = monte_carlo_parallel(partial(TTAStartupModel, config),
                                  partial(no_clique_freeze, config),
                                  walks=3, max_depth=15, seed=2,
                                  verifier=ParallelVerifier(max_workers=2,
                                                            force_pool=True))
    assert pooled.violations == serial.violations
    assert pooled.total_steps == serial.total_steps


# ---------------------------------------------------------------------------
# Campaign and sweep fan-out
# ---------------------------------------------------------------------------

def test_campaign_jobs_identical_to_serial():
    serial = run_campaign(rounds=8.0)
    fanned = run_campaign(rounds=8.0, jobs=2)
    assert serial.containment_table() == fanned.containment_table()
    assert ([outcome.victims for outcome in serial.outcomes]
            == [outcome.victims for outcome in fanned.outcomes])


def test_sweep_jobs_matches_serial():
    from repro.analysis.sweep import sweep_1d, sweep_2d

    serial_rows = sweep_1d(_square, [1, 2, 3])
    fanned_rows = sweep_1d(_square, [1, 2, 3], jobs=2)
    assert serial_rows == fanned_rows

    def multiply(first, second):
        return first * second

    # Closure-captured functions cannot cross process boundaries: the
    # sweep must silently fall back to serial, not crash.
    assert (sweep_2d(multiply, [1, 2], [3, 4], jobs=2)
            == sweep_2d(multiply, [1, 2], [3, 4]))


# ---------------------------------------------------------------------------
# Regression: in-task exceptions must propagate, not trigger serial re-run
# ---------------------------------------------------------------------------
#
# _POOL_FAILURES includes TypeError/AttributeError/OSError because pool
# *infrastructure* raises them for unpicklable work.  Task bodies can
# raise the same types; those must reach the caller as task failures.
# Before the envelope, such a task silently re-ran the whole list
# serially -- doubling the cost and hiding the bug.

def _raises_type_error(value):
    raise TypeError(f"task-level TypeError on {value}")


def _raises_attribute_error(value):
    raise AttributeError(f"task-level AttributeError on {value}")


def _raises_os_error(value):
    raise OSError(f"task-level OSError on {value}")


@pytest.mark.parametrize("worker, exc_type", [
    (_raises_type_error, TypeError),
    (_raises_attribute_error, AttributeError),
    (_raises_os_error, OSError),
])
def test_task_exception_matching_pool_failure_types_propagates(worker,
                                                               exc_type):
    verifier = ParallelVerifier(max_workers=2, force_pool=True)
    with pytest.raises(exc_type, match="task-level"):
        verifier.map(worker, [1, 2, 3])
    # The pool genuinely ran -- this was not the serial fallback
    # re-raising after a silent re-run.
    assert verifier.pool_engaged
    assert verifier.fallback_reason is None


def test_task_exception_carries_worker_traceback():
    verifier = ParallelVerifier(max_workers=2, force_pool=True)
    with pytest.raises(TypeError) as excinfo:
        verifier.map(_raises_type_error, [7, 8])
    assert verifier.pool_engaged
    assert "worker-side traceback" in str(excinfo.value.__cause__)
    assert "_raises_type_error" in str(excinfo.value.__cause__)


def test_serial_path_raises_task_exception_directly():
    verifier = ParallelVerifier(max_workers=1)
    with pytest.raises(TypeError, match="task-level"):
        verifier.map(_raises_type_error, [1])


# ---------------------------------------------------------------------------
# Monte-Carlo witness aggregation across multiple violating chunks
# ---------------------------------------------------------------------------

def test_monte_carlo_multiple_violating_chunks_aggregate():
    # seed=0 over 40 walks splits into two 20-walk chunks that BOTH find
    # violations; the merged result must count all of them and keep the
    # witness from the lowest-indexed walk, exactly as the serial run.
    config = unconstrained_full_shifting()
    serial = monte_carlo_check(TTAStartupModel(config),
                               no_clique_freeze(config),
                               walks=40, max_depth=30, seed=0)
    assert serial.violations > 1  # the seed must exercise aggregation
    pooled = monte_carlo_parallel(partial(TTAStartupModel, config),
                                  partial(no_clique_freeze, config),
                                  walks=40, max_depth=30, seed=0,
                                  verifier=ParallelVerifier(max_workers=2,
                                                            force_pool=True))
    assert pooled.violations == serial.violations
    assert pooled.total_steps == serial.total_steps
    assert pooled.shortest_violation_depth == serial.shortest_violation_depth
    assert ([step.state for step in pooled.first_witness.steps]
            == [step.state for step in serial.first_witness.steps])
