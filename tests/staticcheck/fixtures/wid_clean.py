"""Clean fixture for the WID pack: guarded growth, explicit casts."""

import numpy as np


def guarded_scales(block_radix, node_count):
    if block_radix ** node_count > (1 << 63):
        raise OverflowError("packed word would exceed 63 bits")
    # The guard above dominates this sink on every path: clean.
    return np.array([block_radix ** index for index in range(node_count)],
                    dtype=np.uint64)


def compare_in_one_dtype(n):
    words = np.zeros(n, dtype=np.uint64)
    tails = np.ones(n, dtype=np.int64)
    return words[words == tails.astype(np.uint64)]
