"""Clean fixture for the CON pack: the same submissions done right."""

from concurrent.futures import ProcessPoolExecutor
from functools import partial

from repro.exec import TaskRunner
from repro.exec.pool import run_task_enveloped
from repro.sim.engine import Simulator


def step(task):
    return task


def simulate(config):
    engine = Simulator()  # rebuilt inside the worker from plain data
    return engine.now, config


def ship_module_functions(tasks):
    with ProcessPoolExecutor() as workers:
        return list(workers.map(partial(run_task_enveloped, step), tasks))


def ship_configs(configs):
    runner = TaskRunner(max_workers=2)
    return runner.map(simulate, configs)


def local_closures(tasks):
    # Closures that never reach a pool are fine.
    return sorted(tasks, key=lambda task: -task)
