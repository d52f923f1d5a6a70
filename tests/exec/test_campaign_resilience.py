"""Acceptance tests: resilient execution of the fault-injection campaign.

The issue's bar, verbatim:

* an injected transient task exception yields a campaign result identical
  to the fault-free serial run, with the retry visible as a typed event
  and in the ``TaskResult`` metadata;
* a checkpointed campaign interrupted halfway resumes to a byte-identical
  ``CampaignResult``.
"""

import os
import pickle

import pytest

from repro.core.authority import CouplerAuthority
from repro.exec import TaskRunner
from repro.faults.campaign import (DEFAULT_FAULTS, CampaignResult,
                                   _injection_worker, run_campaign)
from repro.obs.monitors import RunnerHealthMonitor
from repro.sim.monitor import TraceMonitor

ROUNDS = 8.0


def _campaign_tasks():
    return [(fault, topology, CouplerAuthority.SMALL_SHIFTING, ROUNDS, 0)
            for fault in DEFAULT_FAULTS for topology in ("bus", "star")]


@pytest.fixture(scope="module")
def serial_baseline():
    return run_campaign(rounds=ROUNDS)


def _flaky_injection(task):
    """Raises on the first attempt of one cell, then delegates."""
    marker, injection_task = task
    try:
        handle = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        os.close(handle)
        raise RuntimeError("injected transient campaign failure")
    except FileExistsError:
        pass
    return _injection_worker(injection_task)


def _bus_cells_fail(task):
    """Permanently fails every bus cell; star cells run normally."""
    _fault, topology, _authority, _rounds, _seed = task
    if topology == "bus":
        raise RuntimeError("injected interruption")
    return _injection_worker(task)


def test_transient_exception_yields_identical_campaign(tmp_path,
                                                       serial_baseline):
    marker = str(tmp_path / "flaky-cell")
    bus = TraceMonitor()
    health = RunnerHealthMonitor().attach(bus)
    runner = TaskRunner(max_workers=2, force_pool=True, retries=2, bus=bus)
    report = runner.run(_flaky_injection,
                        [(marker, task) for task in _campaign_tasks()])

    result = CampaignResult(outcomes=[entry.value for entry in report.results])
    assert result.outcomes == serial_baseline.outcomes
    assert result.containment_table() == serial_baseline.containment_table()
    # Retry visible in TaskResult metadata and as a typed event.
    assert sum(1 for entry in report.results if entry.retried) == 1
    assert len(health.retried_tasks()) == 1
    assert health.healthy


def test_run_campaign_with_retries_matches_serial(tmp_path, serial_baseline):
    marker = str(tmp_path / "unused")  # no cell actually fails
    del marker
    result = run_campaign(rounds=ROUNDS, jobs=2, retries=1)
    assert result.outcomes == serial_baseline.outcomes


def test_interrupted_campaign_resumes_byte_identical(tmp_path,
                                                     serial_baseline):
    checkpoint = str(tmp_path / "campaign.jsonl")
    tasks = _campaign_tasks()

    # Phase 1: the campaign is "interrupted" -- half its cells fail
    # permanently, the finished half streams to the checkpoint.
    interrupted = TaskRunner(max_workers=2, force_pool=True,
                             checkpoint=checkpoint)
    report = interrupted.run(_bus_cells_fail, tasks)
    finished = [entry for entry in report.results if entry.ok]
    assert 0 < len(finished) < len(tasks)

    # Phase 2: resume with the healthy worker; only the unfinished cells
    # run, and the assembled result is byte-identical to an uninterrupted
    # run through the same pooled path (and semantically identical to the
    # serial baseline).
    resumed = TaskRunner(max_workers=2, force_pool=True,
                         checkpoint=checkpoint, resume=True)
    resumed_report = resumed.run(_injection_worker, tasks)
    assert resumed_report.restored_count == len(finished)
    result = CampaignResult(
        outcomes=[entry.value for entry in resumed_report.results])
    uninterrupted = CampaignResult(outcomes=TaskRunner(
        max_workers=2, force_pool=True).map(_injection_worker, tasks))
    assert pickle.dumps(result) == pickle.dumps(uninterrupted)
    assert result.outcomes == serial_baseline.outcomes


def test_run_campaign_checkpoint_resume_end_to_end(tmp_path, serial_baseline):
    checkpoint = str(tmp_path / "e2e.jsonl")
    first = run_campaign(rounds=ROUNDS, jobs=2, checkpoint=checkpoint)
    assert first.outcomes == serial_baseline.outcomes
    resumed = run_campaign(rounds=ROUNDS, jobs=2, checkpoint=checkpoint,
                           resume=True)
    # Restored cells each went through their own pickle round trip, which
    # breaks cross-outcome object sharing; normalise the expectation the
    # same way before demanding byte-identity.
    expected = CampaignResult(outcomes=[
        pickle.loads(pickle.dumps(outcome)) for outcome in first.outcomes])
    assert pickle.dumps(resumed) == pickle.dumps(expected)


def test_run_campaign_rejects_invalid_jobs():
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        run_campaign(jobs=0)
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        run_campaign(jobs=-2)


def test_verification_matrix_through_runner():
    from repro.core.verification import verify_all_authorities

    serial = verify_all_authorities()
    runner = TaskRunner(max_workers=2, force_pool=True, retries=1)
    resilient = verify_all_authorities(runner=runner)
    assert [(a.value, r.property_holds, r.check.states_explored)
            for a, r in resilient.items()] == [
        (a.value, r.property_holds, r.check.states_explored)
        for a, r in serial.items()]


def test_verify_all_authorities_rejects_invalid_jobs():
    from repro.core.verification import verify_all_authorities

    with pytest.raises(ValueError, match="jobs must be >= 1"):
        verify_all_authorities(jobs=0)
