"""Tests for sharded frontier expansion: a forced worker pool must
produce exactly the serial scalar-order edge list (shard-order
concatenation with offset parent rows is deterministic), small frontiers
must skip the pool, and pool infrastructure failures must degrade to the
serial path with a recorded reason -- never a wrong answer."""

from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core.authority import CouplerAuthority
from repro.model.scenarios import scenario_for_authority
from repro.model.system_model import TTAStartupModel
from repro.modelcheck.shard import FrontierSharder
from repro.modelcheck.vector import VectorExplorer

np = pytest.importorskip("numpy", exc_type=ImportError)


def make_system(authority=CouplerAuthority.SMALL_SHIFTING):
    system = TTAStartupModel(scenario_for_authority(authority))
    system.ensure_packed_tables()
    return system


def frontier_after(system, levels):
    explorer = VectorExplorer(system)
    words, tails, _ = explorer.initial_level(limit=None)
    for _ in range(levels):
        words, tails, _, _ = explorer.step(words, tails, limit=None)
    return words, tails


def test_sharded_level_equals_serial_level():
    """force_pool=True exercises the real scatter/gather path even on a
    single-core host; the result must match the in-process kernel."""
    system = make_system()
    words, tails = frontier_after(system, 4)
    assert len(words) > 8
    with FrontierSharder(system, jobs=2, min_frontier=1,
                         force_pool=True) as sharder:
        sharded = sharder.successor_level(words, tails)
        assert sharder.sharded_levels == 1
        assert sharder.fallback_reason is None
    serial = system._cache_vector_kernel.successor_level(
        words, tails, scalar_order=True)
    # Same edges, same order, parent rows indexing the whole frontier.
    assert [array.tolist() for array in sharded] == \
        [array.tolist() for array in serial]


def test_full_search_through_sharder_matches_serial_search():
    system = make_system(CouplerAuthority.PASSIVE)
    serial = VectorExplorer(system)
    words, tails, _ = serial.initial_level(limit=None)
    while len(words):
        words, tails, _, _ = serial.step(words, tails, limit=None)

    sharded_system = make_system(CouplerAuthority.PASSIVE)
    with FrontierSharder(sharded_system, jobs=2, min_frontier=64,
                         force_pool=True) as sharder:
        explorer = VectorExplorer(sharded_system,
                                  expander=sharder.successor_level)
        words, tails, _ = explorer.initial_level(limit=None)
        while len(words):
            words, tails, _, _ = explorer.step(words, tails, limit=None)
        assert sharder.sharded_levels > 0
        assert sharder.fallback_reason is None
    assert explorer.seen_codes() == serial.seen_codes()


def test_small_frontiers_skip_the_pool():
    system = make_system()
    words, tails = frontier_after(system, 1)
    with FrontierSharder(system, jobs=2, min_frontier=10 ** 6,
                         force_pool=True) as sharder:
        sharder.successor_level(words, tails)
        assert sharder.sharded_levels == 0


def test_jobs_capped_at_cpu_count_unless_forced():
    system = make_system()
    import os

    cpus = os.cpu_count() or 1
    capped = FrontierSharder(system, jobs=cpus + 7)
    assert capped.effective_jobs <= cpus
    forced = FrontierSharder(system, jobs=cpus + 7, force_pool=True)
    assert forced.effective_jobs == cpus + 7


def test_jobs_capped_at_the_affinity_mask(monkeypatch):
    import os

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 16)
    assert FrontierSharder(make_system(), jobs=4).effective_jobs == 1


def test_pool_failure_degrades_to_serial_with_reason():
    system = make_system()
    words, tails = frontier_after(system, 4)

    class BrokenPool:
        def map(self, *args, **kwargs):
            raise BrokenProcessPool("worker died")

        def shutdown(self, *args, **kwargs):
            pass

    sharder = FrontierSharder(system, jobs=2, min_frontier=1,
                              force_pool=True)
    sharder._pool = BrokenPool()
    degraded = sharder.successor_level(words, tails)
    assert sharder.fallback_reason is not None
    assert "BrokenProcessPool" in sharder.fallback_reason
    serial = sharder._serial_level(words, tails)
    assert [array.tolist() for array in degraded] == \
        [array.tolist() for array in serial]
    # Once degraded, the sharder stays serial (no pool thrash).
    sharder.successor_level(words, tails)
    assert sharder.sharded_levels == 0
    sharder.close()


def test_task_exceptions_reraise_with_worker_traceback():
    """A real task-body error is not swallowed by the fallback: it comes
    back through the envelope and re-raises in the parent."""
    from repro.modelcheck.parallel import run_task_enveloped, unwrap_envelope
    from repro.modelcheck.shard import _expand_shard

    envelope = run_task_enveloped(
        _expand_shard, ("no-such-shm-block", 4, 0, 4, None, False))
    with pytest.raises(Exception):
        unwrap_envelope(envelope)
