"""Domain-aware static analysis for the reproduction (``repro lint``).

The two headline results of the reproduction -- the Section 5
model-checking verdicts and the Section 6 buffer constraints -- are only
trustworthy while the model and the DES stay *deterministic* and their
event vocabularies stay *closed*.  Those invariants used to be
conventions; this package turns them into machine-checked rules:

* **DET** (:mod:`repro.staticcheck.rules_det`) -- determinism sanitizer:
  no wall-clock reads, no direct ``random`` use outside ``sim/rng.py``,
  no set iteration in hot paths, no ``id()``-based ordering, no float
  equality in clock-sync code.
* **EVT** (:mod:`repro.staticcheck.rules_evt`) -- event-taxonomy checker:
  every emit site names a dataclass kind declared in ``obs/events.py``
  with matching detail fields; monitors consume declared kinds only.
* **SIM** (:mod:`repro.staticcheck.rules_sim`) -- engine-bypass checker:
  protocol and network code schedules only through the simulator, with
  no private heaps, wall clocks, or per-slot rescheduling loops.
* **MDL** (:mod:`repro.staticcheck.rules_mdl`) -- transition-system
  linter: per coupler authority, dead fault transitions, never-fired
  guards, never-written state variables, and unreachable enum values,
  found by packed-state reachability over the real TTA startup model.
* **CON** (:mod:`repro.staticcheck.rules_con`) -- concurrency hazards
  at the pool boundary: shared-memory mutation after publish, closures
  in submitted work, worker-reachable global mutation (call graph), and
  un-enveloped pool results.
* **WID** (:mod:`repro.staticcheck.rules_wid`) -- packed-width safety of
  the uint64 split-code kernels: unguarded geometry growth into uint64,
  uint64/int64 arithmetic mixing, cross-dtype comparisons.
* **ORD** (:mod:`repro.staticcheck.rules_ord`) -- emit-ordering honesty:
  state mutations post-dominated by the ``_emit`` reporting them, and
  every constructed event kind consumed by some monitor.

The CON/WID/ORD packs are flow- and call-graph-aware: they run over a
shared :class:`~repro.staticcheck.context.AnalysisContext` carrying
per-function CFGs (:mod:`repro.staticcheck.cfg`), a forward dataflow
solver (:mod:`repro.staticcheck.dataflow`), and the repo-wide call
graph (:mod:`repro.staticcheck.callgraph`).

Findings can be suppressed inline (``# repro: ignore[RULE]``) or accepted
into a committed JSON baseline; ``repro lint`` fails CI on anything new.
"""

from repro.staticcheck.baseline import Baseline
from repro.staticcheck.context import AnalysisContext
from repro.staticcheck.emitters import to_json, to_sarif, to_text
from repro.staticcheck.findings import SEVERITIES, Finding
from repro.staticcheck.framework import AstRule, ModuleUnit, all_rules, select_rules
from repro.staticcheck.runner import (
    LintReport,
    changed_python_files,
    lint_model_config,
    run_lint,
    update_baseline,
)

__all__ = [
    "AnalysisContext",
    "AstRule",
    "Baseline",
    "Finding",
    "LintReport",
    "ModuleUnit",
    "SEVERITIES",
    "all_rules",
    "changed_python_files",
    "lint_model_config",
    "run_lint",
    "select_rules",
    "to_json",
    "to_sarif",
    "to_text",
    "update_baseline",
]
