"""Tests for the task-level fan-out of the verification matrix and the
campaign, both run by :class:`repro.exec.TaskRunner`.

The contract under test: parallelism never changes results.  Pools are
forced on (``force_pool=True``) to exercise the real spawn/pickle path
even on single-core CI hosts, and forced off (``max_workers=1``,
simulated pool failures) to cover the serial fallbacks.
"""

import concurrent.futures

import pytest

from repro.core.verification import verify_all_authorities
from repro.exec import TaskExecutionError, TaskRunner
from repro.exec.pool import available_cpus
from repro.faults.campaign import run_campaign


def _square(value):
    return value * value


def _matrix_signature(results):
    return [(authority.value, result.property_holds,
             result.check.states_explored,
             None if result.counterexample is None
             else [(s.state, s.label) for s in result.counterexample.steps])
            for authority, result in results.items()]


# ---------------------------------------------------------------------------
# TaskRunner pool mechanics
# ---------------------------------------------------------------------------

def test_map_serial_when_single_worker():
    runner = TaskRunner(max_workers=1)
    assert runner.map(_square, [1, 2, 3]) == [1, 4, 9]
    assert not runner.pool_engaged
    assert runner.fallback_reason == "single worker"


def test_map_uses_pool_when_forced():
    runner = TaskRunner(max_workers=2, force_pool=True)
    assert runner.map(_square, list(range(8))) == [n * n for n in range(8)]
    assert runner.pool_engaged
    assert runner.fallback_reason is None


def test_map_preserves_order():
    runner = TaskRunner(max_workers=2, force_pool=True)
    values = list(range(20))
    assert runner.map(_square, values) == [_square(v) for v in values]


def test_effective_workers_capped_at_cpu_count():
    runner = TaskRunner(max_workers=max(available_cpus() * 4, 8))
    assert runner.effective_workers <= available_cpus()


def test_force_pool_ignores_cpu_cap():
    runner = TaskRunner(max_workers=3, force_pool=True)
    assert runner.effective_workers == 3


def test_invalid_worker_count_rejected():
    with pytest.raises(ValueError, match="max_workers"):
        TaskRunner(max_workers=0).map(_square, [1])


def test_unpicklable_work_falls_back_to_serial():
    runner = TaskRunner(max_workers=2, force_pool=True)
    assert runner.map(lambda v: v + 1, [1, 2, 3]) == [2, 3, 4]
    assert not runner.pool_engaged
    assert runner.fallback_reason is not None


def test_broken_pool_falls_back_to_serial(monkeypatch):
    class ExplodingPool:
        def __init__(self, max_workers):
            raise OSError("no processes on this host")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        ExplodingPool)
    runner = TaskRunner(max_workers=2, force_pool=True)
    assert runner.map(_square, [1, 2, 3]) == [1, 4, 9]
    assert not runner.pool_engaged
    assert "OSError" in runner.fallback_reason


# ---------------------------------------------------------------------------
# Verification matrix equivalence
# ---------------------------------------------------------------------------

def test_matrix_parallel_identical_to_serial():
    serial = verify_all_authorities()
    runner = TaskRunner(max_workers=2, force_pool=True)
    pooled = verify_all_authorities(runner=runner)
    assert runner.pool_engaged
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
    verify_all_authorities(engine=engine, runner=recorder)
    assert recorder.numpy_tried is imported


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
    from repro.gen.config import GenConfig
    from repro.gen.sweep import run_sweep

    config = GenConfig(name="fan-out", seed=3)
    serial = run_sweep(config, sizes=[4, 5], rounds=12.0, trials=2)
    assert run_sweep(config, sizes=[4, 5], rounds=12.0, trials=2,
                     jobs=2) == serial


# ---------------------------------------------------------------------------
# Regression: in-task exceptions are task failures, not a serial re-run
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
    runner = TaskRunner(max_workers=2, force_pool=True)
    with pytest.raises(TaskExecutionError, match="task-level") as excinfo:
        runner.map(worker, [1, 2, 3])
    assert ([failure.error_type for failure in excinfo.value.failures]
            == [exc_type.__name__] * 3)
    # The pool genuinely ran -- this was not the serial fallback
    # reporting after a silent re-run.
    assert runner.pool_engaged
    assert runner.fallback_reason is None


def test_task_exception_carries_worker_traceback():
    runner = TaskRunner(max_workers=2, force_pool=True)
    with pytest.raises(TaskExecutionError) as excinfo:
        runner.map(_raises_type_error, [7, 8])
    assert runner.pool_engaged
    for failure in excinfo.value.failures:
        assert failure.error_type == "TypeError"
        assert "_raises_type_error" in failure.remote_traceback


def test_serial_path_raises_task_exception_directly():
    """In-process: the failure names the task's exception, once, with no
    worker-side traceback."""
    runner = TaskRunner(max_workers=1)
    with pytest.raises(TaskExecutionError, match="TypeError: task-level") \
            as excinfo:
        runner.map(_raises_type_error, [1])
    [failure] = excinfo.value.failures
    assert (failure.error_type, failure.attempts) == ("TypeError", 1)
    assert failure.remote_traceback is None
