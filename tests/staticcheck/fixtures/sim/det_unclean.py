"""Seeded DET violations (never imported; parsed by the linter tests).

Lives under a ``sim/`` path segment so the hot-path-scoped DET003 rule
applies.  Expected findings: DET001 x2, DET002 x3, DET003 x2, DET004 x2,
DET006 x3.
"""

import random  # DET002: import of the global random module
import time

import numpy as np


def jittered_delay(base):
    start = time.time()  # DET001: wall-clock read
    stamp = time.time_ns()  # DET001: wall-clock read
    noise = random.random()  # DET002: unseeded global generator
    jitter = random.uniform(0.0, 1.0)  # DET002: unseeded global generator
    return base + noise + jitter + (stamp - start)


def drain(channels, extra):
    total = 0
    for channel in {"ch0", "ch1"}:  # DET003: set iteration
        total += len(channel)
    ordered = [name for name in set(extra)]  # DET003: set iteration
    return total, ordered


def arbitration_order(frames, left, right):
    ranked = sorted(frames, key=id)  # DET004: ordering by id()
    tied = id(left) < id(right)  # DET004: magnitude comparison of id()
    return ranked, tied


def frontier_order(codes):
    noise = np.random.rand(len(codes))  # DET006: unseeded process entropy
    order = np.argsort(codes, kind="quicksort")  # DET006: unstable sort kind
    _, first = np.unique(codes, return_index=True)  # DET006: first-index read
    seeded = np.random.default_rng(7)  # clean: seeded generator
    stable = np.argsort(codes, kind="stable")  # clean: stable sort kind
    return noise, order, first, seeded, stable
