"""Resilient task execution: retrying, resumable campaign/matrix runs.

Public surface:

* :class:`TaskRunner` -- order-preserving map over a process pool with
  per-task retries, timeouts, worker-crash recovery, and JSONL
  checkpointing;
* :class:`TaskResult` / :class:`RunReport` -- structured per-task and
  per-run outcomes;
* :class:`TaskExecutionError` -- raised by :meth:`TaskRunner.map` when a
  task exhausts its retry budget;
* :class:`CheckpointStore` / :class:`CheckpointMismatch` -- the resumable
  JSONL store and its validation error;
* :mod:`repro.exec.pool` -- the task envelope, pool-failure
  classification and CPU count shared with the checker's frontier sharder.
"""

from repro.exec.checkpoint import (CheckpointEntry, CheckpointMismatch,
                                   CheckpointStore, read_entries, task_digest)
from repro.exec.runner import (RUNNER_SOURCE, TASK_EXCEPTION, TASK_OK,
                               TASK_TIMEOUT, TASK_WORKER_CRASH, RunReport,
                               TaskExecutionError, TaskResult, TaskRunner)

__all__ = [
    "CheckpointEntry",
    "CheckpointMismatch",
    "CheckpointStore",
    "RunReport",
    "RUNNER_SOURCE",
    "TASK_EXCEPTION",
    "TASK_OK",
    "TASK_TIMEOUT",
    "TASK_WORKER_CRASH",
    "TaskExecutionError",
    "TaskResult",
    "TaskRunner",
    "read_entries",
    "task_digest",
]
