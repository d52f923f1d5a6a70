"""Tests for the shared process-pool primitives."""

import os

import pytest

from repro.exec import TaskRunner, pool
from repro.modelcheck.parallel import ParallelVerifier


def test_available_cpus_follows_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 16)
    assert pool.available_cpus() == 2


@pytest.mark.parametrize("cpu_count, expected", [(6, 6), (None, 1)])
def test_available_cpus_falls_back_to_cpu_count(monkeypatch, cpu_count, expected):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    assert pool.available_cpus() == expected


def test_pools_are_capped_at_the_runnable_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 16)
    assert TaskRunner(max_workers=4).effective_workers == 1
    assert ParallelVerifier(max_workers=4).effective_workers == 1
