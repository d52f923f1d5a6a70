"""Firing fixture for the CON pack: work that cannot cross ``pickle``.

Each CON002 line below ships something a worker process cannot
unpickle: a generator factory, a live Simulator, a lambda, a nested
closure.  The receivers cover both ways the rule recognizes a pool: a
name dataflow tracked from a pool constructor (``workers``, ``spawner``)
and the repository's pool-like receiver names (``pool``, ``runner``).

``TaskRunner`` pickles its work first and falls back to the serial loop
when that fails: these calls run, but the pool never does.
"""

from concurrent.futures import ProcessPoolExecutor

from repro.exec import TaskRunner
from repro.sim.engine import Simulator


def cells(tasks):
    yield from tasks


def step(task):
    return task


def ship_generator(tasks):
    with ProcessPoolExecutor() as workers:
        return list(workers.map(cells, tasks))  # CON002: generator factory


def ship_simulator(task):
    engine = Simulator()
    spawner = ProcessPoolExecutor()
    return spawner.submit(step, task, engine)  # CON002: live Simulator


def ship_closures(pool, tasks):
    pool.submit(lambda: sum(tasks))  # CON002: lambda never pickles

    def inner():
        return tasks

    pool.submit(inner)  # CON002: nested closure never pickles


def ship_through_the_task_runner(tasks):
    runner = TaskRunner(max_workers=2)
    return runner.map(lambda task: step(task), tasks)  # CON002: lambda
