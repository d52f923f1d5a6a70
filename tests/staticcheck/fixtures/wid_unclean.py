"""Firing fixture for the WID pack: one packed-width hazard per rule."""

import numpy as np


def unguarded_scales(block_radix, node_count):
    # WID001: geometry growth into uint64 with no 2**63 guard anywhere.
    return np.array([block_radix ** index for index in range(node_count)],
                    dtype=np.uint64)


def scaled_pool(block_radix, options):
    pool = []
    scale = block_radix ** 3
    pool.extend(option * scale for option in options)
    return np.asarray(pool, dtype=np.uint64)  # WID001 via container taint


def cross_compare(n):
    words = np.zeros(n, dtype=np.uint64)
    tails = np.ones(n, dtype=np.int64)
    return words[words == tails]  # WID003: comparison runs in float64
