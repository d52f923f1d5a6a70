"""Resilient task execution for campaigns, matrices, and sweeps.

:class:`repro.modelcheck.parallel.ParallelVerifier` is the fast path: an
order-preserving map over a process pool whose only degradation mode is
"run the same list serially".  Long fault-injection campaigns and
verification sweeps need more than that -- the harness that *measures*
fault tolerance must itself degrade gracefully.  :class:`TaskRunner`
wraps every task in a structured :class:`TaskResult` envelope and adds:

* **failure classification** -- an in-task exception, a per-task timeout,
  a worker crash (``BrokenProcessPool``), and a submission-time failure
  (unpicklable work, spawn errors) are four different things and are
  handled differently: the first three are retryable per task, the last
  falls back to in-process serial execution of the remaining tasks;
* **bounded deterministic retries** -- each failing task is re-run up to
  ``retries`` times with exponential backoff (``backoff_base * 2**(n-1)``
  seconds, capped at ``backoff_cap``; no jitter, so schedules are
  reproducible);
* **crash recovery** -- when the pool breaks mid-flight, results already
  collected are kept and *only the unfinished tasks* are re-submitted to
  a fresh pool (at most ``pool_rebuilds`` times), instead of re-running
  the whole list;
* **checkpointing** -- finished tasks stream to a JSONL file
  (:mod:`repro.exec.checkpoint`) as they complete, and ``resume=True``
  restores them so an interrupted campaign picks up where it stopped;
* **observability** -- every lifecycle step emits a typed event
  (``task_started`` / ``task_retried`` / ``task_failed`` /
  ``checkpoint_written``) through the :mod:`repro.obs.events` spine, so
  the same online monitors that watch cluster health can watch harness
  health.

Determinism: results are returned in task order regardless of scheduling,
retries re-run the identical task (tasks carry their own seeds), and the
backoff schedule is a pure function of the failure count -- a transient
failure changes *when* a result arrives, never *what* it is.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Callable, Dict, Iterable, List,
                    Optional, Tuple)

from repro.exec.checkpoint import CheckpointStore
from repro.exec.pool import available_cpus, run_task_enveloped
from repro.obs.events import (CheckpointWritten, TaskFailed, TaskRetried,
                              TaskStarted)

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

#: ``TaskResult.status`` values.
TASK_OK = "ok"
TASK_EXCEPTION = "exception"
TASK_TIMEOUT = "timeout"
TASK_WORKER_CRASH = "worker-crash"

#: Event source for every runner-emitted event.
RUNNER_SOURCE = "runner"


def _abandon_pool(pool: ProcessPoolExecutor) -> None:
    """Tear down a pool whose workers may be hung, dead, or unreachable.

    ``shutdown(wait=False)`` alone is not enough here: a worker stuck in
    a timed-out task (or blocked on a call queue whose feeder died with a
    pickling error) never exits, and the half-dismantled pool's threads
    and processes then deadlock the *next* pool's ``fork`` -- the child
    inherits locks no thread will ever release.  Kill the workers
    outright and join the management thread so teardown has fully
    finished before the caller builds a replacement pool.
    """
    processes = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        process.kill()
    for process in processes:
        process.join(5)
    manager = getattr(pool, "_executor_manager_thread", None)
    if manager is not None:
        manager.join(5)


@dataclass(frozen=True)
class TaskResult:
    """Structured outcome of one task, successful or not."""

    index: int
    status: str
    value: Any = None
    attempts: int = 1
    error_type: Optional[str] = None
    error: Optional[str] = None
    remote_traceback: Optional[str] = None
    elapsed_seconds: float = 0.0
    #: True when the result came from a resumed checkpoint, not this run.
    restored: bool = False

    @property
    def ok(self) -> bool:
        return self.status == TASK_OK

    @property
    def retried(self) -> bool:
        """Whether the task needed more than one attempt."""
        return self.attempts > 1


class TaskExecutionError(RuntimeError):
    """Raised by :meth:`TaskRunner.map` when tasks permanently failed."""

    def __init__(self, failures: List[TaskResult]) -> None:
        self.failures = failures
        lines = [f"  task {result.index}: {result.status} after "
                 f"{result.attempts} attempt(s)"
                 + (f" ({result.error_type}: {result.error})"
                    if result.error else "")
                 for result in failures]
        super().__init__(
            f"{len(failures)} task(s) permanently failed:\n" + "\n".join(lines))


@dataclass
class RunReport:
    """Everything :meth:`TaskRunner.run` learned about a campaign."""

    results: List[TaskResult]
    elapsed_seconds: float = 0.0
    pool_engaged: bool = False
    fallback_reason: Optional[str] = None
    checkpoint_path: Optional[str] = None
    restored_count: int = 0
    pool_rebuilds_used: int = 0

    @property
    def failures(self) -> List[TaskResult]:
        return [result for result in self.results if not result.ok]

    @property
    def retry_count(self) -> int:
        """Total extra attempts across all tasks (restored tasks excluded)."""
        return sum(result.attempts - 1 for result in self.results
                   if not result.restored)

    def values(self) -> List[Any]:
        """Task values in task order; raises if any task failed."""
        if self.failures:
            raise TaskExecutionError(self.failures)
        return [result.value for result in self.results]


@dataclass
class TaskRunner:
    """Retrying, resumable, order-preserving map over a process pool.

    Drop-in capable wherever a
    :class:`repro.modelcheck.parallel.ParallelVerifier` is accepted: it
    exposes the same ``map``/``effective_workers``/``pool_engaged``
    surface, plus :meth:`run` for callers that want the per-task
    :class:`TaskResult` envelopes instead of raising on first failure.
    """

    max_workers: Optional[int] = None
    force_pool: bool = False
    #: Per-task retry budget for in-task exceptions and timeouts.
    retries: int = 0
    #: Wall-clock budget per task, measured from submission; ``None``
    #: disables the limit.  Enforced only on the pool path (a single
    #: in-process task cannot be interrupted portably).
    task_timeout: Optional[float] = None
    #: First retry waits ``backoff_base`` seconds, doubling per failure.
    backoff_base: float = 0.0
    backoff_cap: float = 30.0
    #: How many times a broken pool is rebuilt before the tasks lost in
    #: the crash are marked permanently failed.
    pool_rebuilds: int = 3
    #: JSONL checkpoint path; finished tasks stream here as they complete.
    checkpoint: Optional[str] = None
    #: Restore finished tasks from ``checkpoint`` before running.
    resume: bool = False
    #: Event sink -- anything with an ``emit(event)`` method, e.g. a
    #: :class:`repro.sim.monitor.TraceMonitor`.
    bus: Optional[Any] = None

    #: Set by :meth:`run`: whether the last call actually used a pool.
    pool_engaged: bool = field(default=False, init=True)
    #: Set by :meth:`run` when the pool fell back to serial.
    fallback_reason: Optional[str] = field(default=None, init=True)

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError(
                f"task_timeout must be > 0, got {self.task_timeout}")
        self._crash_error = ""

    # -- worker geometry (mirrors ParallelVerifier) ---------------------------

    @property
    def requested_workers(self) -> int:
        if self.max_workers is None:
            return available_cpus()
        if self.max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {self.max_workers}")
        return self.max_workers

    @property
    def effective_workers(self) -> int:
        if self.force_pool:
            return self.requested_workers
        return max(1, min(self.requested_workers, available_cpus()))

    # -- public API -----------------------------------------------------------

    def map(self, function: Callable[[Any], Any],
            tasks: Iterable[Any]) -> List[Any]:
        """``[function(t) for t in tasks]`` with retries, timeouts, crash
        recovery, and checkpointing; raises :class:`TaskExecutionError`
        when any task permanently failed."""
        return self.run(function, tasks).values()

    def run(self, function: Callable[[Any], Any],
            tasks: Iterable[Any]) -> RunReport:
        """Execute every task, never raising for task-level failures."""
        task_list = list(tasks)
        self.pool_engaged = False
        self.fallback_reason = None
        epoch = time.perf_counter()
        results: Dict[int, TaskResult] = {}
        attempts: Dict[int, int] = {index: 0 for index in range(len(task_list))}
        failures: Dict[int, int] = {index: 0 for index in range(len(task_list))}
        rebuilds_used = 0

        store: Optional[CheckpointStore] = None
        restored_count = 0
        if self.checkpoint is not None:
            store = CheckpointStore(self.checkpoint)
            for index, entry in sorted(
                    store.open_for_run(task_list, resume=self.resume).items()):
                results[index] = TaskResult(
                    index=index, status=TASK_OK, value=entry.value,
                    attempts=entry.attempts,
                    elapsed_seconds=entry.elapsed_seconds, restored=True)
                restored_count += 1
        try:
            pending = [index for index in range(len(task_list))
                       if index not in results]
            if pending and (self.effective_workers <= 1 or len(pending) <= 1):
                self.fallback_reason = ("single worker"
                                        if self.effective_workers <= 1
                                        else "single task")
                self._run_serial(function, task_list, pending, results,
                                 attempts, failures, store, epoch)
            elif pending:
                rebuilds_used = self._run_pooled(
                    function, task_list, results, attempts, failures,
                    store, epoch)
        finally:
            if store is not None:
                store.close()
        return RunReport(
            results=[results[index] for index in range(len(task_list))],
            elapsed_seconds=time.perf_counter() - epoch,
            pool_engaged=self.pool_engaged,
            fallback_reason=self.fallback_reason,
            checkpoint_path=self.checkpoint,
            restored_count=restored_count,
            pool_rebuilds_used=rebuilds_used)

    # -- event plumbing -------------------------------------------------------

    def _emit(self, event: Any) -> None:
        if self.bus is not None:
            self.bus.emit(event)

    def _elapsed(self, epoch: float) -> float:
        return time.perf_counter() - epoch

    def _backoff_delay(self, failure_count: int) -> float:
        if self.backoff_base <= 0:
            return 0.0
        return min(self.backoff_base * (2 ** (failure_count - 1)),
                   self.backoff_cap)

    def _sleep_backoff(self, failure_count: int) -> None:
        delay = self._backoff_delay(failure_count)
        if delay > 0:
            time.sleep(delay)

    # -- bookkeeping shared by both paths -------------------------------------

    def _finish_ok(self, index: int, value: Any, attempts: int,
                   elapsed: float, results: Dict[int, TaskResult],
                   store: Optional[CheckpointStore], epoch: float) -> None:
        results[index] = TaskResult(index=index, status=TASK_OK, value=value,
                                    attempts=attempts,
                                    elapsed_seconds=elapsed)
        if store is not None and store.write(index, attempts, elapsed, value):
            self._emit(CheckpointWritten(time=self._elapsed(epoch),
                                         source=RUNNER_SOURCE, index=index,
                                         path=str(self.checkpoint)))

    def _register_failure(self, index: int, reason: str, error_text: str,
                          error_type: Optional[str], remote_tb: Optional[str],
                          elapsed: float, results: Dict[int, TaskResult],
                          attempts: Dict[int, int], failures: Dict[int, int],
                          epoch: float) -> bool:
        """Count one failed attempt; returns True when the task may retry."""
        failures[index] += 1
        if failures[index] <= self.retries:
            self._emit(TaskRetried(time=self._elapsed(epoch),
                                   source=RUNNER_SOURCE, index=index,
                                   attempt=attempts[index], reason=reason,
                                   error=error_text))
            return True
        self._emit(TaskFailed(time=self._elapsed(epoch), source=RUNNER_SOURCE,
                              index=index, attempts=attempts[index],
                              reason=reason, error=error_text))
        results[index] = TaskResult(index=index, status=reason,
                                    attempts=attempts[index],
                                    error_type=error_type, error=error_text,
                                    remote_traceback=remote_tb,
                                    elapsed_seconds=elapsed)
        return False

    # -- serial path ----------------------------------------------------------

    def _run_serial(self, function: Callable[[Any], Any], task_list: List[Any],
                    pending: List[int], results: Dict[int, TaskResult],
                    attempts: Dict[int, int], failures: Dict[int, int],
                    store: Optional[CheckpointStore], epoch: float) -> None:
        for index in pending:
            while index not in results:
                attempts[index] += 1
                self._emit(TaskStarted(time=self._elapsed(epoch),
                                       source=RUNNER_SOURCE, index=index,
                                       attempt=attempts[index]))
                started = time.perf_counter()
                try:
                    value = function(task_list[index])
                except Exception as exc:
                    may_retry = self._register_failure(
                        index, TASK_EXCEPTION, str(exc), type(exc).__name__,
                        None, time.perf_counter() - started, results,
                        attempts, failures, epoch)
                    if may_retry:
                        self._sleep_backoff(failures[index])
                else:
                    self._finish_ok(index, value, attempts[index],
                                    time.perf_counter() - started,
                                    results, store, epoch)

    # -- pool path ------------------------------------------------------------

    def _run_pooled(self, function: Callable[[Any], Any],
                    task_list: List[Any], results: Dict[int, TaskResult],
                    attempts: Dict[int, int], failures: Dict[int, int],
                    store: Optional[CheckpointStore], epoch: float) -> int:
        """Generational pool loop; returns the number of pool rebuilds."""
        # Imported here, not at module level: a serial run never loads
        # concurrent.futures.process and, with it, multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        rebuilds = 0
        while True:
            pending = [index for index in range(len(task_list))
                       if index not in results]
            if not pending:
                return rebuilds
            try:
                pool = ProcessPoolExecutor(
                    max_workers=min(self.effective_workers, len(pending)))
            except OSError as failure:
                self.fallback_reason = f"{type(failure).__name__}: {failure}"
                self._run_serial(function, task_list, pending, results,
                                 attempts, failures, store, epoch)
                return rebuilds
            crashed, submission_failed = self._pool_generation(
                pool, function, task_list, pending, results, attempts,
                failures, store, epoch)
            if submission_failed:
                remaining = [index for index in range(len(task_list))
                             if index not in results]
                self._run_serial(function, task_list, remaining, results,
                                 attempts, failures, store, epoch)
                return rebuilds
            if crashed:
                rebuilds += 1
                lost = [index for index in range(len(task_list))
                        if index not in results]
                if rebuilds > self.pool_rebuilds:
                    for index in lost:
                        self._emit(TaskFailed(
                            time=self._elapsed(epoch), source=RUNNER_SOURCE,
                            index=index, attempts=attempts[index],
                            reason=TASK_WORKER_CRASH, error=self._crash_error))
                        results[index] = TaskResult(
                            index=index, status=TASK_WORKER_CRASH,
                            attempts=attempts[index],
                            error_type="BrokenProcessPool",
                            error=self._crash_error)
                    return rebuilds
                for index in lost:
                    self._emit(TaskRetried(
                        time=self._elapsed(epoch), source=RUNNER_SOURCE,
                        index=index, attempt=attempts[index],
                        reason=TASK_WORKER_CRASH, error=self._crash_error))
                self._sleep_backoff(rebuilds)
                continue
            # Exceptions/timeouts this generation were already registered;
            # back off once per wave before re-submitting retryable tasks.
            retrying = [index for index in pending
                        if index not in results and failures[index] > 0]
            if retrying:
                self._sleep_backoff(max(failures[index] for index in retrying))

    def _pool_generation(self, pool: ProcessPoolExecutor,
                         function: Callable[[Any], Any],
                         task_list: List[Any], pending: List[int],
                         results: Dict[int, TaskResult],
                         attempts: Dict[int, int], failures: Dict[int, int],
                         store: Optional[CheckpointStore],
                         epoch: float) -> Tuple[bool, bool]:
        """Submit ``pending`` to ``pool`` and drain it.

        Returns ``(crashed, submission_failed)``.  Finished tasks land in
        ``results``; exception/timeout failures are registered against
        the retry budget; tasks lost to a crash or submission failure are
        left unfinished for the caller to reschedule.
        """
        from concurrent.futures import FIRST_COMPLETED, wait
        from concurrent.futures.process import BrokenProcessPool

        from repro.exec.pool import _POOL_FAILURES

        info: Dict[Any, Tuple[int, float]] = {}
        crashed = False
        submission_failed = False
        abandoning = False
        try:
            for index in pending:
                attempts[index] += 1
                self._emit(TaskStarted(time=self._elapsed(epoch),
                                       source=RUNNER_SOURCE, index=index,
                                       attempt=attempts[index]))
                try:
                    future = pool.submit(run_task_enveloped, function,
                                         task_list[index])
                except Exception as failure:
                    # The pool rejected the submission outright (broken or
                    # shut down): everything unfinished re-runs.
                    self._crash_error = f"{type(failure).__name__}: {failure}"
                    crashed = True
                    return True, False
                info[future] = (index, time.perf_counter())
            waiting = set(info)
            poll = (None if self.task_timeout is None
                    else max(0.01, min(0.05, self.task_timeout / 4)))
            while waiting:
                done, waiting = wait(waiting, timeout=poll,
                                     return_when=FIRST_COMPLETED)
                for future in sorted(done, key=lambda item: info[item][0]):
                    index, submitted = info[future]
                    elapsed = time.perf_counter() - submitted
                    try:
                        status, value, remote_tb = future.result()
                    except _POOL_FAILURES as failure:
                        text = f"{type(failure).__name__}: {failure}"
                        if isinstance(failure, BrokenProcessPool):
                            # Worker died: this task and everything still
                            # waiting is lost; the caller rebuilds the pool
                            # and re-submits only these unfinished tasks.
                            self._crash_error = text
                            crashed = True
                        else:
                            # Submission-time failure surfaced through the
                            # future (unpicklable function/task/result):
                            # retrying in a pool cannot help, fall back to
                            # in-process serial for the unfinished tasks.
                            attempts[index] -= 1
                            self.fallback_reason = text
                            submission_failed = True
                        abandoning = True
                        return crashed, submission_failed
                    if status == "ok":
                        self._finish_ok(index, value, attempts[index],
                                        elapsed, results, store, epoch)
                    else:
                        self._register_failure(
                            index, TASK_EXCEPTION, str(value),
                            type(value).__name__, remote_tb, elapsed,
                            results, attempts, failures, epoch)
                if self.task_timeout is not None:
                    now = time.perf_counter()
                    expired = sorted(
                        (future for future in waiting
                         if now - info[future][1] > self.task_timeout),
                        key=lambda item: info[item][0])
                    for future in expired:
                        waiting.discard(future)
                        future.cancel()
                        abandoning = True
                        index, submitted = info[future]
                        self._register_failure(
                            index, TASK_TIMEOUT,
                            f"task exceeded {self.task_timeout:g}s",
                            "TimeoutError", None, now - submitted, results,
                            attempts, failures, epoch)
            self.pool_engaged = True
            return False, False
        finally:
            # A pool with timed-out (still running) or crashed workers is
            # abandoned without waiting; a healthy one is drained cleanly.
            if abandoning or crashed:
                _abandon_pool(pool)
            else:
                pool.shutdown(wait=True)
