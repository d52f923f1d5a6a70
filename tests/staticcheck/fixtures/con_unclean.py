"""Firing fixture for the CON pack: one pool hazard per rule."""

from concurrent.futures import ProcessPoolExecutor
from functools import partial
from multiprocessing import shared_memory

import numpy as np

from repro.exec.pool import run_task_enveloped

#: Module-global mutable cache a worker-reachable helper writes (CON003).
CACHE = {}


def _helper(key):
    CACHE[key] = True  # CON003: reachable from the pool entry `worker`


def worker(task):
    _helper(task)
    return task


def bare(task):
    return task + 1


def mutate_after_publish(tasks):
    block = shared_memory.SharedMemory(create=True, size=len(tasks) * 8)
    view = np.frombuffer(block.buf, dtype=np.uint64, count=len(tasks))
    view[:] = 0
    with ProcessPoolExecutor() as pool:
        results = list(pool.map(partial(run_task_enveloped, worker), tasks))
        view[0] = 1  # CON001: store into the view after publication
    return results


def ship_closures(pool, tasks):
    pool.submit(lambda: sum(tasks))  # CON002: lambda never pickles

    def inner():
        return tasks

    pool.submit(inner)  # CON002: nested closure never pickles


def unenveloped(tasks):
    pool = ProcessPoolExecutor()
    return list(pool.map(bare, tasks))  # CON004: no run_task_enveloped
