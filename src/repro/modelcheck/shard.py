"""Intra-configuration parallelism: sharded frontier expansion.

:class:`repro.exec.runner.TaskRunner` fans *independent tasks* over a
pool; this module parallelizes *inside one check*, on a pool of its own.
The vectorized engine's BFS is level-synchronous, and one
level's successor computation is embarrassingly parallel across frontier
rows -- so each level is split into contiguous shards, one per worker:

1. the parent publishes the frontier once through
   ``multiprocessing.shared_memory`` (words then tails, one block), so
   ``N`` workers map the same pages instead of unpickling ``N`` copies;
2. each worker attaches, copies *its slice only*, expands it with its own
   :class:`~repro.modelcheck.vector.VectorKernel` in the scalar engine's
   enumeration order, and returns the shard's edges with parent rows
   offset by the shard's start;
3. the parent concatenates the shards in shard order.  Edges are
   parent-major and shards are contiguous row ranges, so the result is
   exactly the serial level's edge list -- independent of worker
   scheduling -- and the checker's level loop resolves it as it would
   the serial one.

Workers run the task body inside
:func:`repro.exec.pool.run_task_enveloped`, so task exceptions
come back as data and re-raise in the parent with the worker-side
traceback attached; pool infrastructure failures (spawn errors, a broken
pool, shared-memory attach failures) instead degrade to the identical
serial expansion, recorded in :attr:`FrontierSharder.fallback_reason`.

Workers rebuild the model from its picklable ``config`` (models are
never shipped across the process boundary); sharding therefore requires
a system constructible as ``TTAStartupModel(config)``.  Small frontiers
skip the pool entirely -- scatter/gather overhead would dwarf the
expansion -- governed by ``min_frontier``.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from functools import partial
from multiprocessing import shared_memory
from typing import Any, Dict, List, Optional, Tuple

from repro.exec.pool import (
    _POOL_FAILURES,
    available_cpus,
    run_task_enveloped,
    unwrap_envelope,
)
from repro.modelcheck.encode import require_numpy
from repro.modelcheck.vector import VectorKernel, model_kernel

#: Per-process cache of the worker-side kernel, keyed by config.
_WORKER_STATE: Dict[Any, VectorKernel] = {}


def _worker_state(key: Any) -> VectorKernel:
    """The worker-side kernel for the model config ``key`` (cached)."""
    state = _WORKER_STATE.get(key)
    if state is None:
        from repro.model.system_model import TTAStartupModel

        model = TTAStartupModel(key)
        model.ensure_packed_tables()
        state = VectorKernel(model)
        _WORKER_STATE[key] = state
    return state


def _expand_shard(task: Tuple) -> Tuple[Any, Any, Any]:
    """Expand one frontier shard (runs inside a worker process).

    ``task`` is ``(shm_name, total, start, stop, config)``; the shared
    block holds ``total`` uint64 words followed by ``total`` int64
    tails.  Returns the shard's edges in scalar enumeration order,
    as ``(succ_words, succ_tails, parent_rows)`` with rows indexing the
    whole frontier.
    """
    shm_name, total, start, stop, config = task
    np = require_numpy()
    kernel = _worker_state(config)
    block = shared_memory.SharedMemory(name=shm_name)
    try:
        words = np.frombuffer(block.buf, dtype=np.uint64,
                              count=stop - start, offset=8 * start).copy()
        tails = np.frombuffer(block.buf, dtype=np.int64,
                              count=stop - start,
                              offset=8 * (total + start)).copy()
    finally:
        block.close()
    succ_words, succ_tails, parents = kernel.successor_level(
        words, tails, scalar_order=True)
    return succ_words, succ_tails, parents + start


class FrontierSharder:
    """Pool-backed drop-in for one level's scalar-order expansion.

    :meth:`successor_level` has the signature of
    :meth:`VectorKernel.successor_level` with ``scalar_order=True``: the
    checker's level loop calls it, and it also serves as the
    ``expander`` of a :class:`~repro.modelcheck.vector.VectorExplorer`.
    Call :meth:`close` (or use as a context manager) when the search
    ends.

    ``jobs`` is the requested width; like
    :class:`~repro.exec.runner.TaskRunner` it is capped at
    the host CPU count unless ``force_pool`` is set (tests on single-core
    hosts must still exercise the scatter/gather path).
    """

    def __init__(self, model: Any, jobs: int, min_frontier: int = 4096,
                 force_pool: bool = False) -> None:
        self.np = require_numpy()
        self.model = model
        self.config = model.config  # sharding needs a rebuildable model
        self.min_frontier = min_frontier
        self.requested_jobs = jobs
        if force_pool:
            self.effective_jobs = jobs
        else:
            self.effective_jobs = max(1, min(jobs, available_cpus()))
        model.ensure_packed_tables()
        self.kernel = model_kernel(model)
        self._pool: Optional[ProcessPoolExecutor] = None
        #: Why the sharder stopped using the pool (None while healthy).
        self.fallback_reason: Optional[str] = None
        #: Number of levels actually expanded through the pool.
        self.sharded_levels = 0

    # -- lifecycle ---------------------------------------------------------------

    def __enter__(self) -> "FrontierSharder":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.effective_jobs)
        return self._pool

    # -- expansion ---------------------------------------------------------------

    def successor_level(self, words: Any, tails: Any) -> Tuple[Any, Any, Any]:
        """One level's edges ``(succ_words, succ_tails, parent_rows)`` in
        scalar enumeration order -- sharded when worthwhile, serial
        otherwise; always the same arrays either way."""
        if (self.effective_jobs <= 1
                or self.fallback_reason is not None
                or len(words) < self.min_frontier):
            return self._serial_level(words, tails)
        try:
            return self._sharded_level(words, tails)
        except _POOL_FAILURES as failure:
            self.fallback_reason = f"{type(failure).__name__}: {failure}"
            self.close()
            return self._serial_level(words, tails)

    def _serial_level(self, words: Any, tails: Any) -> Tuple[Any, Any, Any]:
        return self.kernel.successor_level(words, tails, scalar_order=True)

    def _sharded_level(self, words: Any, tails: Any) -> Tuple[Any, Any, Any]:
        np = self.np
        total = len(words)
        block = shared_memory.SharedMemory(create=True, size=16 * total)
        try:
            shared_words = np.frombuffer(block.buf, dtype=np.uint64,
                                         count=total, offset=0)
            shared_tails = np.frombuffer(block.buf, dtype=np.int64,
                                         count=total, offset=8 * total)
            shared_words[:] = words
            shared_tails[:] = tails
            del shared_words, shared_tails

            shards = self.effective_jobs
            base, excess = divmod(total, shards)
            tasks: List[Tuple] = []
            start = 0
            for shard in range(shards):
                stop = start + base + (1 if shard < excess else 0)
                if stop > start:
                    tasks.append((block.name, total, start, stop,
                                  self.config))
                start = stop
            pool = self._ensure_pool()
            envelopes = list(pool.map(
                partial(run_task_enveloped, _expand_shard), tasks))
        finally:
            block.close()
            block.unlink()
        results = [unwrap_envelope(envelope) for envelope in envelopes]
        self.sharded_levels += 1
        succ_words, succ_tails, parents = (np.concatenate(part)
                                           for part in zip(*results))
        return succ_words, succ_tails, parents
