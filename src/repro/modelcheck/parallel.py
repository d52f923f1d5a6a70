"""Parallel fan-out of independent verification work.

The checks this repo runs are embarrassingly parallel at the *task* level:
the four authority levels of the EXP-V1 matrix are independent model-check
runs, every fault x topology cell of a campaign is an independent
simulation, Monte-Carlo walks are independent by construction (each walk
draws from its own seeded substream), and sweep grid points share nothing.
:class:`ParallelVerifier` fans such task lists out over a
:class:`concurrent.futures.ProcessPoolExecutor` while guaranteeing the
*same results as the serial path*:

* tasks are submitted and collected in input order, so aggregates built
  from the result list are order-identical to a serial loop;
* every task carries its own seed/substream, never a shared RNG, so
  outcomes do not depend on scheduling;
* the pool degrades gracefully -- ``max_workers=1``, a single-core host,
  unpicklable work, or a broken/unavailable pool all fall back to running
  the identical tasks serially in-process.

Worker functions live at module top level (picklable by reference) and
rebuild models from their configs inside the worker; nothing with caches
or closures crosses the process boundary.

The pool primitives -- the :func:`~repro.exec.pool.run_task_enveloped`
task envelope, the pool-failure classification and
:func:`~repro.exec.pool.available_cpus` -- live in :mod:`repro.exec.pool`,
shared with :class:`repro.exec.TaskRunner`, which the simulator commands
use without importing the checker.  This module imports them from there.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.exec.pool import _POOL_FAILURES, available_cpus, run_task_enveloped, unwrap_envelope
from repro.modelcheck.encode import have_numpy


@dataclass
class ParallelVerifier:
    """Order-preserving map over a process pool, with serial fallback.

    ``max_workers`` is the *requested* width; the effective width is
    capped at the host CPU count (spawning more workers than cores only
    adds fork/pickle overhead to CPU-bound checks).  Pass
    ``force_pool=True`` to skip the cap and force a real pool even on a
    single-core host -- used by the equivalence tests, which must exercise
    the pickle/spawn path regardless of hardware.
    """

    max_workers: Optional[int] = None
    force_pool: bool = False
    #: Set by :meth:`map`: whether the last call actually used a pool.
    pool_engaged: bool = False
    #: Set by :meth:`map` when the pool fell back to serial.
    fallback_reason: Optional[str] = None

    @property
    def requested_workers(self) -> int:
        if self.max_workers is None:
            return available_cpus()
        if self.max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {self.max_workers}")
        return self.max_workers

    @property
    def effective_workers(self) -> int:
        """Pool width actually used (requested, capped at CPU count)."""
        if self.force_pool:
            return self.requested_workers
        return max(1, min(self.requested_workers, available_cpus()))

    def map(self, function: Callable[[Any], Any],
            tasks: Iterable[Any]) -> List[Any]:
        """``[function(t) for t in tasks]``, possibly across processes.

        Results are returned in task order.  Falls back to the serial
        comprehension when the effective width is 1 or the pool cannot be
        used -- but *only* for infrastructure failures (unpicklable work,
        spawn errors, a broken pool).  Task bodies run wrapped in
        :func:`run_task_enveloped`, so an exception raised *inside a
        task* -- including ``TypeError``/``AttributeError``/``OSError``,
        which pool infrastructure can also raise -- propagates to the
        caller instead of silently re-running the whole list serially.
        """
        task_list = list(tasks)
        self.pool_engaged = False
        self.fallback_reason = None
        if self.effective_workers <= 1 or len(task_list) <= 1:
            self.fallback_reason = ("single worker"
                                    if self.effective_workers <= 1
                                    else "single task")
            return [function(task) for task in task_list]
        try:
            with ProcessPoolExecutor(max_workers=self.effective_workers) as pool:
                envelopes = list(pool.map(partial(run_task_enveloped, function),
                                          task_list))
        except _POOL_FAILURES as failure:
            self.fallback_reason = f"{type(failure).__name__}: {failure}"
            return [function(task) for task in task_list]
        self.pool_engaged = True
        return [unwrap_envelope(envelope) for envelope in envelopes]


# ---------------------------------------------------------------------------
# Verification matrix (EXP-V1)
# ---------------------------------------------------------------------------

def _verify_authority_worker(task: Tuple) -> Any:
    """Model-check one authority level (runs inside a worker process)."""
    authority_value, slots, out_of_slot_budget, max_states, engine = task
    from repro.core.authority import CouplerAuthority
    from repro.core.verification import verify_authority

    return verify_authority(CouplerAuthority(authority_value), slots=slots,
                            out_of_slot_budget=out_of_slot_budget,
                            max_states=max_states, engine=engine)


def verify_authorities_parallel(slots: int = 4,
                                out_of_slot_budget: Optional[int] = 1,
                                max_states: Optional[int] = None,
                                engine: str = "auto",
                                jobs: Optional[int] = None,
                                verifier: Optional[ParallelVerifier] = None,
                                runner: Optional[Any] = None
                                ) -> Dict[Any, Any]:
    """EXP-V1 across all four authority levels, fanned out over ``jobs``.

    Returns the same ``{authority: VerificationResult}`` dict (same
    insertion order, same verdicts, same counterexample traces) as the
    serial :func:`repro.core.verification.verify_all_authorities`.

    ``runner`` substitutes any object with a ``map(function, tasks)``
    method -- typically a :class:`repro.exec.TaskRunner` for retrying /
    checkpointed matrices -- for the plain pool.
    """
    from repro.core.authority import all_authorities

    if engine in ("auto", "vectorized"):
        # The array engine imports numpy on first use: import it once here,
        # before the pool forks, not once in every worker.
        have_numpy()
    authorities = list(all_authorities())
    tasks = [(authority.value, slots, out_of_slot_budget, max_states, engine)
             for authority in authorities]
    mapper = runner or verifier or ParallelVerifier(max_workers=jobs)
    results = mapper.map(_verify_authority_worker, tasks)
    return dict(zip(authorities, results))


# ---------------------------------------------------------------------------
# Fault-injection campaigns (EXP-S2)
# ---------------------------------------------------------------------------

def _injection_worker(task: Tuple) -> Any:
    """Run one fault x topology injection (inside a worker process)."""
    fault, topology, authority, rounds, seed = task
    from repro.faults.campaign import run_injection

    return run_injection(fault, topology, authority=authority,
                         rounds=rounds, seed=seed)


def run_injections_parallel(tasks: Sequence[Tuple],
                            jobs: Optional[int] = None,
                            verifier: Optional[ParallelVerifier] = None,
                            runner: Optional[Any] = None) -> List[Any]:
    """Fan a list of ``(fault, topology, authority, rounds, seed)`` tasks
    out over a pool, preserving order (each injection builds its own
    cluster from its own seed, so outcomes are scheduling-independent).

    ``runner`` substitutes a :class:`repro.exec.TaskRunner` (or anything
    with a ``map`` method) for the plain pool."""
    mapper = runner or verifier or ParallelVerifier(max_workers=jobs)
    return mapper.map(_injection_worker, list(tasks))


# ---------------------------------------------------------------------------
# Monte-Carlo walks
# ---------------------------------------------------------------------------

def _walk_chunk_worker(task: Tuple) -> Dict[str, Any]:
    """Run a contiguous chunk of walk indices (inside a worker process).

    Walk ``index`` always draws from the substream ``walk{index}`` of the
    root seed -- exactly what the serial loop does -- so per-walk outcomes
    are independent of which worker runs them.
    """
    make_system, make_invariant, start, count, max_depth, seed = task
    from repro.modelcheck.simulate import random_walk
    from repro.sim.rng import RandomStream

    system = make_system()
    invariant = make_invariant()
    rng = RandomStream(seed=seed, path="monte-carlo")
    violations = 0
    total_steps = 0
    shortest: Optional[int] = None
    first_witness = None
    first_witness_index: Optional[int] = None
    for index in range(start, start + count):
        result = random_walk(system, invariant, rng.child(f"walk{index}"),
                             max_depth=max_depth,
                             keep_trace=first_witness is None)
        total_steps += result.steps_taken
        if result.violated:
            violations += 1
            if first_witness is None:
                first_witness = result.trace
                first_witness_index = index
            if shortest is None or result.steps_taken < shortest:
                shortest = result.steps_taken
    return {"violations": violations, "total_steps": total_steps,
            "shortest": shortest, "first_witness": first_witness,
            "first_witness_index": first_witness_index}


def monte_carlo_parallel(make_system: Callable[[], Any],
                         make_invariant: Callable[[], Any],
                         walks: int = 200, max_depth: int = 100,
                         seed: int = 0, jobs: Optional[int] = None,
                         verifier: Optional[ParallelVerifier] = None,
                         runner: Optional[Any] = None) -> Any:
    """Parallel :func:`repro.modelcheck.simulate.monte_carlo_check`.

    ``make_system`` / ``make_invariant`` must be picklable zero-argument
    callables (e.g. ``functools.partial(TTAStartupModel, config)``);
    workers rebuild the model rather than shipping cached state across
    the process boundary.  The aggregate -- violation count, total steps,
    shortest violation depth, and the first (lowest-index) witness trace
    -- is identical to the serial call with the same seed.
    """
    import time

    from repro.modelcheck.simulate import MonteCarloResult

    if walks < 1:
        raise ValueError(f"need at least one walk, got {walks}")
    verifier = runner or verifier or ParallelVerifier(max_workers=jobs)
    chunk_count = max(1, min(verifier.effective_workers, walks))
    base, excess = divmod(walks, chunk_count)
    tasks = []
    start = 0
    for chunk in range(chunk_count):
        count = base + (1 if chunk < excess else 0)
        tasks.append((make_system, make_invariant, start, count,
                      max_depth, seed))
        start += count

    started = time.perf_counter()
    chunks = verifier.map(_walk_chunk_worker, tasks)
    elapsed = time.perf_counter() - started

    violations = sum(chunk["violations"] for chunk in chunks)
    total_steps = sum(chunk["total_steps"] for chunk in chunks)
    shortest_values = [chunk["shortest"] for chunk in chunks
                       if chunk["shortest"] is not None]
    witnesses = [(chunk["first_witness_index"], chunk["first_witness"])
                 for chunk in chunks if chunk["first_witness"] is not None]
    first_witness = min(witnesses)[1] if witnesses else None
    return MonteCarloResult(
        walks=walks, max_depth=max_depth, violations=violations,
        total_steps=total_steps, elapsed_seconds=elapsed,
        first_witness=first_witness,
        shortest_violation_depth=min(shortest_values) if shortest_values else None)
