"""Verification driver: authority level -> model check -> verdict + trace.

The public entry points of the model-checking half of the paper:

* :func:`verify_authority` -- build the Section 4 model for one coupler
  authority level and check the Section 5.1 property, returning a
  :class:`VerificationResult` with the verdict and, on failure, the
  shortest counterexample trace;
* :func:`verify_all_authorities` -- the Section 5.2 result matrix
  (EXP-V1): passive, time-windows, and small-shifting couplers satisfy the
  property; full-shifting couplers do not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.authority import CouplerAuthority, all_authorities
from repro.model.config import ModelConfig
from repro.model.properties import clique_frozen_nodes, no_clique_freeze
from repro.model.scenarios import scenario_for_authority
from repro.model.system_model import TTAStartupModel
from repro.modelcheck.checker import CheckResult, InvariantChecker
from repro.modelcheck.encode import have_numpy
from repro.modelcheck.trace import Trace, render_trace


@dataclass
class VerificationResult:
    """Verdict for one coupler configuration."""

    authority: CouplerAuthority
    config: ModelConfig
    check: CheckResult

    @property
    def property_holds(self) -> bool:
        return self.check.holds

    @property
    def counterexample(self) -> Optional[Trace]:
        return self.check.counterexample

    def frozen_node(self) -> Optional[str]:
        """Name of the node the counterexample freezes, if any."""
        if self.counterexample is None:
            return None
        victims = clique_frozen_nodes(self.config, self.counterexample.final_view())
        return victims[0] if victims else None

    def narrate(self) -> str:
        """Render the verdict (and counterexample, if any) for reports."""
        header = (f"authority={self.authority.value}: "
                  f"{'PROPERTY HOLDS' if self.property_holds else 'PROPERTY VIOLATED'}"
                  f" ({self.check.states_explored} states, "
                  f"{self.check.elapsed_seconds:.2f}s)")
        if self.counterexample is None:
            return header
        victim = self.frozen_node()
        subtitle = (f"shortest counterexample: {len(self.counterexample)} slots, "
                    f"node {victim} forced to freeze")
        return "\n".join([header, subtitle,
                          render_trace(self.counterexample,
                                       title="Counterexample trace")])


def verify_config(config: ModelConfig,
                  max_states: Optional[int] = None,
                  engine: str = "auto",
                  jobs: Optional[int] = None) -> VerificationResult:
    """Model-check the Section 5.1 property on an explicit configuration.

    ``jobs`` only applies to the vectorized engine: intra-check frontier
    sharding across ``jobs`` workers (see :mod:`repro.modelcheck.shard`).
    """
    system = TTAStartupModel(config)
    checker = InvariantChecker(system, max_states=max_states, engine=engine,
                               jobs=jobs)
    check = checker.check(no_clique_freeze(config))
    return VerificationResult(authority=config.authority, config=config,
                              check=check)


def verify_authority(authority: CouplerAuthority,
                     slots: int = 4,
                     out_of_slot_budget: Optional[int] = 1,
                     max_states: Optional[int] = None,
                     engine: str = "auto",
                     jobs: Optional[int] = None) -> VerificationResult:
    """Model-check the property for one coupler authority level."""
    config = scenario_for_authority(authority, slots=slots,
                                    out_of_slot_budget=out_of_slot_budget)
    return verify_config(config, max_states=max_states, engine=engine,
                         jobs=jobs)


def _verify_authority_worker(task: Tuple) -> VerificationResult:
    """Check one ``(authority, slots, out_of_slot_budget, engine)`` cell of
    the matrix (a top-level function, so pool workers receive it by
    reference)."""
    authority, slots, out_of_slot_budget, engine = task
    return verify_authority(authority, slots=slots,
                            out_of_slot_budget=out_of_slot_budget,
                            engine=engine)


def verify_all_authorities(slots: int = 4,
                           out_of_slot_budget: Optional[int] = 1,
                           engine: str = "auto",
                           jobs: Optional[int] = None,
                           retries: int = 0,
                           task_timeout: Optional[float] = None,
                           checkpoint: Optional[str] = None,
                           resume: bool = False,
                           runner=None
                           ) -> Dict[CouplerAuthority, VerificationResult]:
    """EXP-V1: the Section 5.2 verification matrix over all four levels.

    The four checks are independent tasks of a
    :class:`repro.exec.TaskRunner`; ``jobs`` fans them out over a process
    pool with verdicts and counterexamples identical to the serial loop.
    ``retries`` re-runs failing checks, ``task_timeout`` bounds each
    check's wall-clock, and ``checkpoint``/``resume`` persist finished
    checks to JSONL so an interrupted matrix restarts where it stopped.
    A pre-built ``runner`` (any object with ``map``) takes precedence
    over ``jobs`` and those knobs.

    With the *vectorized* engine and none of those knobs the parallelism
    turns inward instead: the matrix runs serially and ``jobs`` shards
    each check's BFS frontier across workers
    (:mod:`repro.modelcheck.shard`) -- on one configuration a task-level
    fan-out cannot help, frontier sharding can.
    """
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}; "
                         f"pass jobs=None (or 1) for the serial path")
    authorities = all_authorities()
    resilient = (retries or task_timeout is not None
                 or checkpoint is not None or resume)
    if engine == "vectorized" and runner is None and not resilient:
        return {authority: verify_authority(
                    authority, slots=slots,
                    out_of_slot_budget=out_of_slot_budget, engine=engine,
                    jobs=jobs)
                for authority in authorities}
    if engine in ("auto", "vectorized"):
        # The array engine imports numpy on first use: import it once here,
        # before the pool forks, not once in every worker.
        have_numpy()
    from repro.exec import TaskRunner

    runner = runner or TaskRunner(max_workers=jobs or 1, retries=retries,
                                  task_timeout=task_timeout,
                                  checkpoint=checkpoint, resume=resume)
    tasks = [(authority, slots, out_of_slot_budget, engine)
             for authority in authorities]
    return dict(zip(authorities, runner.map(_verify_authority_worker, tasks)))


def expected_verdicts() -> Dict[CouplerAuthority, bool]:
    """The paper's reported outcomes (True = property holds)."""
    return {
        CouplerAuthority.PASSIVE: True,
        CouplerAuthority.TIME_WINDOWS: True,
        CouplerAuthority.SMALL_SHIFTING: True,
        CouplerAuthority.FULL_SHIFTING: False,
    }
