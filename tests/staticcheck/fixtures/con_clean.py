"""Clean fixture for the CON pack: the same idioms done right."""

from concurrent.futures import ProcessPoolExecutor
from functools import partial
from multiprocessing import shared_memory

import numpy as np

from repro.exec.pool import run_task_enveloped

#: Immutable module global: fine to read from workers.
LIMITS = (1, 2, 3)

#: Mutable, but only ever written by main-process-only code.
CACHE = {}


def worker(task):
    return task * LIMITS[0]


def local_cache_refresh(key):
    CACHE[key] = True  # not reachable from any pool entry point


def main_process_only(tasks):
    for task in tasks:
        local_cache_refresh(task)


def publish_then_leave_alone(tasks):
    block = shared_memory.SharedMemory(create=True, size=len(tasks) * 8)
    view = np.frombuffer(block.buf, dtype=np.uint64, count=len(tasks))
    view[:] = 0  # all writes happen before publication
    del view
    with ProcessPoolExecutor() as pool:
        return list(pool.map(partial(run_task_enveloped, worker), tasks))


def enveloped_submission(tasks):
    pool = ProcessPoolExecutor()
    return list(pool.map(partial(run_task_enveloped, worker), tasks))
