"""A named subclass of the task runner, kept for the benchmark tracer.

Every task-level fan-out -- the EXP-V1 verification matrix, the EXP-S2
campaign, the generated sweeps -- runs through
:class:`repro.exec.runner.TaskRunner`.  :class:`ParallelVerifier` exists
only because ``perfbench/perf_spans.py`` imports it and wraps its
``map``; it goes once the tracer reads product counters instead of
patching methods (ROADMAP item 1).  Nothing in the package constructs it.
"""

from __future__ import annotations

from repro.exec.runner import TaskRunner


class ParallelVerifier(TaskRunner):
    """A :class:`TaskRunner` under its old name; nothing constructs it.

    A subclass rather than an alias, so that the tracer's wrapper on
    ``ParallelVerifier.map`` never lands on ``TaskRunner.map`` (which
    calls the separately traced ``TaskRunner.run``).
    """
