"""Process-pool primitives shared by the package's two pools.

:class:`repro.exec.runner.TaskRunner` (every task-level fan-out) and
:class:`repro.modelcheck.shard.FrontierSharder` (frontier shards inside
one check) both submit task bodies wrapped in :func:`run_task_enveloped`,
tell pool failures from task failures with ``_POOL_FAILURES``, and size
their pools with :func:`available_cpus`.  They live here, beside the
runner, so that the simulator commands, which fan out through
:class:`TaskRunner`, never import the model checker.  ``_POOL_FAILURES``
resolves on first access, so a serial run never loads
``concurrent.futures`` or ``multiprocessing``.
"""

from __future__ import annotations

import os
import pickle
import traceback
from pickle import PicklingError
from typing import Any, Callable, Optional, Tuple


class RemoteTraceback(Exception):
    """Carries a worker-side traceback as the ``__cause__`` of a re-raised
    task exception, so the parent-side stack trace shows where the task
    actually failed inside the worker process."""

    def __str__(self) -> str:
        return "\n\n--- worker-side traceback ---\n" + self.args[0]


def run_task_enveloped(function: Callable[[Any], Any],
                       task: Any) -> Tuple[str, Any, Optional[str]]:
    """Run ``function(task)`` and capture the outcome as data.

    Returns ``("ok", value, None)`` on success and
    ``("error", exception, formatted_traceback)`` on failure.  Runs inside
    worker processes: because the task exception travels back as a
    *return value*, anything raised out of the pool machinery itself is
    unambiguously an infrastructure failure (see ``_POOL_FAILURES``).
    An unpicklable task exception is replaced by a ``RuntimeError``
    carrying its repr, so the envelope always crosses the process
    boundary.
    """
    try:
        return ("ok", function(task), None)
    except Exception as exc:
        formatted = traceback.format_exc()
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            exc = RuntimeError(f"unpicklable task exception "
                               f"{type(exc).__name__}: {exc}")
        return ("error", exc, formatted)


def unwrap_envelope(envelope: Tuple[str, Any, Optional[str]]) -> Any:
    """Value of an ``("ok", ...)`` envelope; re-raises an ``("error", ...)``
    one with the worker-side traceback attached as ``__cause__``."""
    status, value, formatted = envelope
    if status == "ok":
        return value
    if formatted is not None:
        raise value from RemoteTraceback(formatted)
    raise value


def available_cpus() -> int:
    """CPUs this process may run on (1 when undetectable).

    Honours the affinity mask (``taskset``, a cgroup cpuset) where the
    platform exposes it: ``os.cpu_count()`` counts the host's CPUs, and
    a pool sized past the runnable ones only adds fork and pickle
    overhead.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


def __getattr__(name: str) -> Any:
    """``_POOL_FAILURES``: exception types that indicate the *pool* (not
    the task) failed -- the work could not be pickled, worker processes
    could not be spawned, or the pool broke mid-flight.

    Task bodies run inside :func:`run_task_enveloped`, which captures
    their exceptions and ships them back as data -- so an exception of
    one of these types escaping the pool machinery can only come from the
    infrastructure itself (pickling raises ``PicklingError``/
    ``TypeError``/``AttributeError`` depending on the payload), never
    from user task code.  Built on first access (PEP 562), by the code
    that is about to build a pool.
    """
    if name != "_POOL_FAILURES":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # BrokenProcessPool subclasses RuntimeError, not OSError.
    from concurrent.futures.process import BrokenProcessPool

    return (PicklingError, AttributeError, TypeError, ImportError, OSError,
            BrokenProcessPool)
