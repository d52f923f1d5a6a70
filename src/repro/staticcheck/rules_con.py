"""CON -- unpicklable work handed to a process pool.

Work shipped to a pool crosses ``pickle``: a lambda, a nested closure,
a generator factory or a live ``Simulator`` does not survive the trip.
``TaskRunner`` pickles the work before it builds a pool and quietly falls
back to the serial loop when that fails, so such a submission passes
every test while the pool never runs.  The rule uses the dataflow tag
lattice (which values are pools, which are simulators) and the repo call
graph (which names are nested or generator functions) to see it:

======== ==============================================================
CON002   closures handed to pools: lambdas, nested functions, generator
         factories, or ``Simulator``-tagged values in submitted work --
         none of them cross ``pickle`` intact
======== ==============================================================
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Tuple

from repro.staticcheck.cfg import own_nodes
from repro.staticcheck.dataflow import (
    BOTTOM,
    AbstractValue,
    assignment_keys,
    environments_before,
    reference_key,
)
from repro.staticcheck.findings import Finding
from repro.staticcheck.framework import (
    AstRule,
    ModuleUnit,
    is_generator_function,
    terminal_name,
)

#: Dataflow tags used by this pack.
TAG_POOL = "pool"
TAG_SIM = "simulator"

#: Receiver names treated as pool-like even when untracked by dataflow
#: (the repo's mapper/verifier/runner indirections all pickle their work).
_POOLISH_NAMES = frozenset({"pool", "executor", "mapper", "verifier",
                            "runner"})

#: Method names that ship work to workers.
_SUBMIT_METHODS = frozenset({"map", "submit"})

_ENVELOPE = "run_task_enveloped"


def _call_terminal(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Call):
        return terminal_name(node.func)
    return None


def _is_pool_constructor(node: ast.AST) -> bool:
    return _call_terminal(node) in ("ProcessPoolExecutor",
                                    "ThreadPoolExecutor", "Pool")


class _PoolEnv:
    """Per-function dataflow: which names hold pools and simulators."""

    def __init__(self, context, function: ast.AST) -> None:
        self.cfg = context.cfg(function)
        graph = context.callgraph
        self.info = graph.functions.get(graph.key_of(function) or "")
        self.before = environments_before(self.cfg, self._transfer)

    def _value_of(self, env, node: ast.AST) -> AbstractValue:
        key = reference_key(node)
        if key is not None:
            return env.get(key, BOTTOM)
        if _is_pool_constructor(node):
            return AbstractValue(frozenset({TAG_POOL}))
        if _call_terminal(node) == "Simulator":
            return AbstractValue(frozenset({TAG_SIM}))
        return BOTTOM

    def _is_submission(self, env, call: ast.Call) -> bool:
        """Whether this call ships work to worker processes."""
        if not isinstance(call.func, ast.Attribute):
            return False
        if call.func.attr not in _SUBMIT_METHODS:
            return False
        receiver = call.func.value
        if self._value_of(env, receiver).has(TAG_POOL):
            return True
        name = terminal_name(receiver)
        return name is not None and name.split("_")[-1] in _POOLISH_NAMES

    def _transfer(self, env, stmt: ast.stmt):
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)) and \
                stmt.value is not None:
            value = self._value_of(env, stmt.value)
            for key in assignment_keys(stmt):
                env[key] = value
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if item.optional_vars is None or \
                        not _is_pool_constructor(item.context_expr):
                    continue
                key = reference_key(item.optional_vars)
                if key is not None:
                    env[key] = AbstractValue(frozenset({TAG_POOL}))
        return env

    def submissions(self) -> Iterator[Tuple[dict, ast.Call]]:
        """(environment before the statement, call) of every submission."""
        for stmt in self.cfg.statements():
            env = self.before.get(id(stmt), {})
            for node in own_nodes(stmt):
                if isinstance(node, ast.Call) and \
                        self._is_submission(env, node):
                    yield env, node


def _iter_function_envs(unit: ModuleUnit, context) -> Iterator[_PoolEnv]:
    for function in context.functions(unit):
        source = "\n".join(unit.lines[function.lineno - 1:function.end_lineno])
        if "map(" not in source and "submit(" not in source:
            continue  # fast path: nothing pool-shaped in this function
        yield _PoolEnv(context, function)


def _envelope_wrapped(node: ast.AST) -> bool:
    """Whether a submitted callable routes through run_task_enveloped."""
    if terminal_name(node) == _ENVELOPE:
        return True
    if isinstance(node, ast.Call) and _call_terminal(node) == "partial":
        return bool(node.args) and terminal_name(node.args[0]) == _ENVELOPE
    return False


class UnpicklableSubmissionRule(AstRule):
    """CON002: work shipped to a pool must survive pickling."""

    rule = "CON002"
    description = ("pools receive module-level functions and plain data: "
                   "no lambdas, nested closures, generator factories, or "
                   "live Simulator objects in submitted work")

    def _diagnose_callable(self, unit: ModuleUnit, context, flow: _PoolEnv,
                           node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Lambda):
            return "a lambda (closures never pickle)"
        if isinstance(node, ast.Name):
            graph = context.callgraph
            target = graph.resolve_callable(unit, node, flow.info)
            if target is not None:
                info = graph.functions[target]
                if info.nested:
                    return (f"nested function {node.id}() (its closure "
                            f"cells never pickle)")
                if is_generator_function(info.node):
                    return (f"generator function {node.id}() (workers "
                            f"cannot resume a parent-side generator)")
        return None

    def check(self, unit: ModuleUnit, context) -> Iterator[Finding]:
        for flow in _iter_function_envs(unit, context):
            for env, call in flow.submissions():
                if not call.args:
                    continue
                submitted = call.args[0]
                if _envelope_wrapped(submitted):
                    inner = submitted.args[1:] if isinstance(
                        submitted, ast.Call) else []
                else:
                    inner = []
                for candidate in [submitted, *inner]:
                    why = self._diagnose_callable(unit, context, flow,
                                                  candidate)
                    if why is not None:
                        yield self.finding(
                            unit, call,
                            f"pool submission ships {why}; move the work "
                            f"to a module-level function")
                # Payload arguments that carry a live Simulator never
                # unpickle into a runnable engine on the worker side.
                for argument in call.args[1:]:
                    for node in ast.walk(argument):
                        ref = reference_key(node)
                        if ref and env.get(ref, BOTTOM).has(TAG_SIM):
                            yield self.finding(
                                unit, call,
                                f"pool submission payload captures live "
                                f"Simulator {ref!r}; ship a picklable "
                                f"config and rebuild in the worker")
                        elif isinstance(node, ast.Lambda):
                            yield self.finding(
                                unit, call,
                                "pool submission payload contains a "
                                "lambda; closures never pickle")


CON_RULES = (UnpicklableSubmissionRule,)
