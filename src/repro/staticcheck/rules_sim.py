"""SIM -- the engine-bypass checker.

The discrete-event engine (:mod:`repro.sim.engine`) has one scheduling
primitive: timed callbacks on one heap, queued through
``Simulator.schedule`` / ``schedule_at`` / ``post``.  Protocol and
network code that keeps a private event heap, reads a wall clock, or
reschedules one event per slot in a loop works around that primitive.

======== ==============================================================
SIM003   protocol and network modules (``ttp/``, ``network/``) must not
         bypass the engine: no direct ``heapq`` / ``time`` imports, no
         ad-hoc per-slot rescheduling loops around ``sim.schedule``
======== ==============================================================
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.staticcheck.findings import Finding
from repro.staticcheck.framework import AstRule, ModuleUnit, dotted_name


#: Modules banned from protocol/network code: their functionality belongs
#: to the engine (event ordering) or does not exist in simulated time.
_BYPASS_IMPORTS = frozenset({"heapq", "time"})

#: Simulator scheduling entry points whose use inside a loop marks an
#: ad-hoc per-slot rescheduling pattern.
_SCHEDULE_METHODS = frozenset({"schedule", "schedule_at", "post"})


class NoEngineBypassRule(AstRule):
    """SIM003: protocol/network code schedules only through the engine.

    The hot-path refactor moved all event bookkeeping into the engine
    (its event queue) and per-channel state processes: protocol and
    network modules hold *no* private event heaps, never consult wall
    clocks, and install compiled dispatch tables instead of scheduling
    one event per slot.  This rule keeps it that way: direct ``heapq`` /
    ``time`` imports and ``sim.schedule`` calls inside ``for`` / ``while``
    loops are flagged.  The one legitimate heap -- the shared
    :class:`~repro.network.channel.ChannelScheduler` -- is baselined.
    """

    rule = "SIM003"
    description = ("ttp/ and network/ modules must schedule through the "
                   "Simulator API: no direct heapq/time imports, no "
                   "per-slot rescheduling loops")

    def applies_to(self, unit: ModuleUnit) -> bool:
        return unit.in_directory("ttp", "network")

    def check(self, unit: ModuleUnit, context) -> Iterator[Finding]:
        for node in ast.walk(unit.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in _BYPASS_IMPORTS:
                        yield self.finding(
                            unit, node,
                            f"direct import of {root!r} in a protocol/"
                            f"network module: event ordering belongs to "
                            f"the engine queue and wall-clock time does "
                            f"not exist in simulated time")
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and node.module:
                    root = node.module.split(".")[0]
                    if root in _BYPASS_IMPORTS:
                        yield self.finding(
                            unit, node,
                            f"direct import from {root!r} in a protocol/"
                            f"network module: event ordering belongs to "
                            f"the engine queue and wall-clock time does "
                            f"not exist in simulated time")
            elif isinstance(node, (ast.For, ast.While)):
                yield from self._check_loop(unit, node)

    def _check_loop(self, unit: ModuleUnit,
                    loop: ast.AST) -> Iterator[Finding]:
        for node in ast.walk(loop):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            parts = name.split(".")
            if (len(parts) >= 2 and parts[-2] == "sim"
                    and parts[-1] in _SCHEDULE_METHODS):
                yield self.finding(
                    unit, node,
                    f"{name}() inside a loop: per-slot rescheduling "
                    f"loops were replaced by compiled dispatch tables "
                    f"(Medl.dispatch()) and single channel-state "
                    f"processes; schedule one event and re-aim it")


SIM_RULES = (NoEngineBypassRule,)
