"""SIM -- the engine-process checker.

The discrete-event engine (:mod:`repro.sim.engine`) is cooperative: a
simulation process is an ordinary generator that yields ``Timeout`` /
``Signal`` commands, and the *only* legal way to pass time.  Registering
a plain function silently runs it to completion at start-up instead of
cooperating, and calling a blocking primitive from inside a process
stalls the whole simulated cluster at one instant of simulated time.

======== ==============================================================
SIM001   functions registered as simulator processes
         (``sim.process(f(...))`` / ``Process(sim, f(...))``) must be
         generator functions
SIM002   generator bodies must not call blocking primitives
         (``time.sleep``, ``input``, ``subprocess``, sockets, ...)
SIM003   protocol and network modules (``ttp/``, ``network/``) must not
         bypass the engine: no direct ``heapq`` / ``time`` imports, no
         ad-hoc per-slot rescheduling loops around ``sim.schedule``
======== ==============================================================
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator

from repro.staticcheck.findings import Finding
from repro.staticcheck.framework import (
    AstRule,
    ModuleUnit,
    dotted_name,
    is_generator_function,
    terminal_name,
)
from repro.staticcheck.rules_det import BLOCKING_CALLS


def _function_table(unit: ModuleUnit) -> Dict[str, ast.FunctionDef]:
    """Every function definition in the module, by bare name.

    Methods and nested functions are included under their bare name: the
    registration sites this rule resolves (``sim.process(worker(...))``)
    overwhelmingly call something defined in the same module, and a bare
    name is how they spell it.
    """
    table: Dict[str, ast.FunctionDef] = {}
    for node in ast.walk(unit.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            table.setdefault(node.name, node)
    return table


class ProcessIsGeneratorRule(AstRule):
    """SIM001: only generators may be registered as simulator processes."""

    rule = "SIM001"
    description = ("functions registered as simulator processes must be "
                   "generator functions (yield Timeout/Signal commands)")

    def _registered_factories(self, unit: ModuleUnit) -> Iterator[ast.Call]:
        """Call nodes whose result is handed to the engine as a process."""
        for node in ast.walk(unit.tree):
            if not isinstance(node, ast.Call):
                continue
            # sim.process(factory(...), ...) -- the convenience wrapper.
            if (isinstance(node.func, ast.Attribute)
                    and node.func.attr == "process" and node.args
                    and isinstance(node.args[0], ast.Call)):
                yield node.args[0]
            # Process(sim, factory(...), ...) -- the class itself.  Two
            # positional arguments keep multiprocessing.Process(target=f)
            # out of scope.
            elif (terminal_name(node.func) == "Process"
                    and len(node.args) >= 2
                    and isinstance(node.args[1], ast.Call)):
                yield node.args[1]

    def check(self, unit: ModuleUnit, context) -> Iterator[Finding]:
        table = _function_table(unit)
        for factory_call in self._registered_factories(unit):
            name = terminal_name(factory_call.func)
            if name is None:
                continue
            definition = table.get(name)
            if definition is None:
                continue  # defined elsewhere: not statically resolvable
            if not is_generator_function(definition):
                yield self.finding(
                    unit, factory_call,
                    f"{name}() is registered as a simulator process but is "
                    f"not a generator function; it would run to completion "
                    f"at start-up instead of cooperating (line "
                    f"{definition.lineno})")


class NoBlockingCallsRule(AstRule):
    """SIM002: process generators cooperate; they never block the loop."""

    rule = "SIM002"
    description = ("generator bodies must not call blocking primitives; "
                   "yield Timeout(delay) to pass simulated time")

    def check(self, unit: ModuleUnit, context) -> Iterator[Finding]:
        for node in ast.walk(unit.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not is_generator_function(node):
                continue
            yield from self._check_body(unit, node)

    def _check_body(self, unit: ModuleUnit,
                    definition: ast.FunctionDef) -> Iterator[Finding]:
        for node in ast.walk(definition):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            if name in BLOCKING_CALLS or any(
                    name.endswith("." + target) for target in BLOCKING_CALLS):
                yield self.finding(
                    unit, node,
                    f"blocking call {name}() inside generator "
                    f"{definition.name!r}: it would stall every process at "
                    f"one instant of simulated time; yield Timeout instead")


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


SIM_RULES = (ProcessIsGeneratorRule, NoBlockingCallsRule, NoEngineBypassRule)
