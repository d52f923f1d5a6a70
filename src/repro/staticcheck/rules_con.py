"""CON -- concurrency-hazard rules over pools and shared memory.

Three process-boundary idioms each have a failure mode a per-file
syntactic linter cannot see: the ``run_task_enveloped`` result envelope,
publish-once ``shared_memory`` arrays, and per-process worker caches.
These rules use the CFG, the dataflow tag lattice, and the repo call
graph to see them:

======== ==============================================================
CON001   a ``shared_memory``-backed array view is mutated *after* the
         frontier was published to pool workers (flow-sensitive: the
         store is reachable from a ``pool.map``/``submit`` call)
CON002   closures handed to pools: lambdas, nested functions, generator
         factories, or ``Simulator``-tagged values in submitted work --
         none of them cross ``pickle`` intact
CON003   module-global mutable state written by code reachable from a
         pool worker entry point (call-graph closure): the write lands
         in the *worker's* interpreter, silently diverging from the
         parent's copy
CON004   raw ``ProcessPoolExecutor`` results consumed without the
         ``run_task_enveloped`` envelope, so a worker-side exception
         is indistinguishable from pool infrastructure failure
======== ==============================================================
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.staticcheck.dataflow import (
    BOTTOM,
    FACTS,
    AbstractValue,
    assignment_keys,
    environments_before,
    reference_key,
)
from repro.staticcheck.cfg import own_nodes
from repro.staticcheck.findings import Finding
from repro.staticcheck.framework import (
    AstRule,
    ModuleUnit,
    is_generator_function,
    terminal_name,
)

#: Dataflow tags used by this pack.
TAG_SHM = "shm-block"
TAG_VIEW = "shm-view"
TAG_POOL = "pool"
TAG_SIM = "simulator"
FACT_PUBLISHED = "published"

#: Receiver names treated as pool-like even when untracked by dataflow
#: (the repo's mapper/verifier/runner indirections all pickle their work).
_POOLISH_NAMES = frozenset({"pool", "executor", "mapper", "verifier",
                            "runner"})

#: Method names that ship work to workers.
_SUBMIT_METHODS = frozenset({"map", "submit"})

#: Mutating container methods (for CON003's global-mutation detection).
_MUTATORS = frozenset({"append", "extend", "add", "update", "setdefault",
                       "insert", "clear", "pop", "popitem", "remove",
                       "discard", "__setitem__"})

_ENVELOPE = "run_task_enveloped"


def _call_terminal(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Call):
        return terminal_name(node.func)
    return None


def _is_pool_constructor(node: ast.AST) -> bool:
    return _call_terminal(node) in ("ProcessPoolExecutor",
                                    "ThreadPoolExecutor", "Pool")


def _annotation_says_pool(annotation: Optional[ast.AST]) -> bool:
    if annotation is None:
        return False
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value,
                                                           str):
        return annotation.value.split(".")[-1].strip('"\'') == \
            "ProcessPoolExecutor"
    name = terminal_name(annotation)
    return name in ("ProcessPoolExecutor", "ThreadPoolExecutor", "Pool")


class _PoolEnv:
    """Per-function dataflow: pool/shared-memory tags + the publish fact."""

    def __init__(self, unit: ModuleUnit, context, function: ast.AST) -> None:
        self.unit = unit
        self.context = context
        self.function = function
        self.cfg = context.cfg(function)
        graph = context.callgraph
        self.info = graph.functions.get(graph.key_of(function) or "")
        self.before = environments_before(self.cfg, self._transfer)

    # -- expression tagging -------------------------------------------------------

    def _value_of(self, env, node: ast.AST) -> AbstractValue:
        key = reference_key(node)
        if key is not None:
            return env.get(key, BOTTOM)
        if isinstance(node, ast.Call):
            return self._call_value(env, node)
        return BOTTOM

    def _call_value(self, env, call: ast.Call) -> AbstractValue:
        name = _call_terminal(call)
        if name == "SharedMemory":
            return AbstractValue(frozenset({TAG_SHM}))
        if _is_pool_constructor(call):
            return AbstractValue(frozenset({TAG_POOL}))
        if name == "Simulator":
            return AbstractValue(frozenset({TAG_SIM}))
        if name == "frombuffer":
            for argument in ast.walk(call):
                if (isinstance(argument, ast.Attribute)
                        and argument.attr == "buf"
                        and self._value_of(env, argument.value).has(TAG_SHM)):
                    return AbstractValue(frozenset({TAG_VIEW}))
            return BOTTOM
        # Calls resolving to a function annotated -> ProcessPoolExecutor
        # (a lazy ``_ensure_pool`` helper, say) produce a pool.
        graph = self.context.callgraph
        target = graph.resolve_callable(self.unit, call.func, self.info)
        if target is not None:
            returns = getattr(graph.functions[target].node, "returns", None)
            if _annotation_says_pool(returns):
                return AbstractValue(frozenset({TAG_POOL}))
        return BOTTOM

    def _is_publication(self, env, call: ast.Call) -> bool:
        """Whether this call ships work (and therefore the shared block's
        name) to worker processes."""
        if not isinstance(call.func, ast.Attribute):
            return False
        if call.func.attr not in _SUBMIT_METHODS:
            return False
        receiver = call.func.value
        if self._value_of(env, receiver).has(TAG_POOL):
            return True
        name = terminal_name(receiver)
        return name is not None and name.split("_")[-1] in _POOLISH_NAMES

    # -- transfer -----------------------------------------------------------------

    def _transfer(self, env, stmt: ast.stmt):
        if isinstance(stmt, ast.Assign) and len(stmt.targets) >= 1:
            value = self._value_of(env, stmt.value)
            for key in assignment_keys(stmt):
                env[key] = value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            value = self._value_of(env, stmt.value)
            for key in assignment_keys(stmt):
                env[key] = value
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                key = reference_key(target)
                if key is not None:
                    env.pop(key, None)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if item.optional_vars is None:
                    continue
                key = reference_key(item.optional_vars)
                if key is None:
                    continue
                if _is_pool_constructor(item.context_expr):
                    env[key] = AbstractValue(frozenset({TAG_POOL}))
                elif _call_terminal(item.context_expr) == "SharedMemory":
                    env[key] = AbstractValue(frozenset({TAG_SHM}))
        for node in own_nodes(stmt):
            if isinstance(node, ast.Call) and self._is_publication(env, node):
                facts = env.get(FACTS, BOTTOM)
                env[FACTS] = facts.with_tag(FACT_PUBLISHED)
                break
        return env

    # -- queries used by the rules ------------------------------------------------

    def env_before(self, stmt: ast.stmt):
        return self.before.get(id(stmt), {})

    def submissions(self) -> Iterator[Tuple[ast.stmt, ast.Call]]:
        """(statement, call) pairs of every publication site, with the
        environment *before* the statement available for tagging."""
        for stmt in self.cfg.statements():
            env = self.env_before(stmt)
            for node in own_nodes(stmt):
                if isinstance(node, ast.Call) and \
                        self._is_publication(env, node):
                    yield stmt, node

    def raw_pool_submissions(self) -> Iterator[Tuple[ast.stmt, ast.Call]]:
        """Publication sites whose receiver is a *tracked* raw pool."""
        for stmt, call in self.submissions():
            env = self.env_before(stmt)
            if self._value_of(env, call.func.value).has(TAG_POOL):
                yield stmt, call


def _iter_function_envs(unit: ModuleUnit, context) -> Iterator[_PoolEnv]:
    for function in context.functions(unit):
        source = "\n".join(unit.lines[function.lineno - 1:function.end_lineno])
        if ("map(" not in source and "submit(" not in source
                and "SharedMemory" not in source):
            continue  # fast path: nothing pool-shaped in this function
        yield _PoolEnv(unit, context, function)


def _envelope_wrapped(node: ast.AST) -> bool:
    """Whether a submitted callable routes through run_task_enveloped."""
    if terminal_name(node) == _ENVELOPE:
        return True
    if isinstance(node, ast.Call) and _call_terminal(node) == "partial":
        return bool(node.args) and terminal_name(node.args[0]) == _ENVELOPE
    return False


class SharedMemoryPublishRule(AstRule):
    """CON001: never mutate a shared-memory view after publishing it."""

    rule = "CON001"
    description = ("a shared_memory-backed array view must not be mutated "
                   "after the block was published to pool workers")

    def check(self, unit: ModuleUnit, context) -> Iterator[Finding]:
        for flow in _iter_function_envs(unit, context):
            for stmt in flow.cfg.statements():
                if not isinstance(stmt, (ast.Assign, ast.AugAssign)):
                    continue
                env = flow.env_before(stmt)
                if not env.get(FACTS, BOTTOM).has(FACT_PUBLISHED):
                    continue
                targets = stmt.targets if isinstance(stmt, ast.Assign) \
                    else [stmt.target]
                for target in targets:
                    if not isinstance(target, ast.Subscript):
                        continue
                    if flow._value_of(env, target.value).has(TAG_VIEW):
                        name = terminal_name(target.value) or "<view>"
                        yield self.finding(
                            unit, stmt,
                            f"store into shared-memory view {name!r} after "
                            f"the block was published to pool workers; "
                            f"workers may be reading these pages "
                            f"concurrently -- write before submitting")


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
            for stmt, call in flow.submissions():
                if not call.args:
                    continue
                env = flow.env_before(stmt)
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


class WorkerGlobalMutationRule(AstRule):
    """CON003: worker-reachable code must not write module globals."""

    rule = "CON003"
    description = ("module-global mutable state written by code reachable "
                   "from a pool worker entry point diverges per process")
    severity = "warning"
    scope = "universe"

    def _entry_points(self, context) -> List[str]:
        """Call-graph keys of every function shipped to a pool."""
        graph = context.callgraph
        seeds: Set[str] = set()
        for unit in context.units:
            for flow in _iter_function_envs(unit, context):
                for _, call in flow.submissions():
                    if not call.args:
                        continue
                    candidates: List[ast.AST] = []
                    first = call.args[0]
                    if isinstance(first, ast.Call) and \
                            _call_terminal(first) == "partial":
                        candidates.extend(first.args)
                    else:
                        candidates.append(first)
                        # pool.submit(run_task_enveloped, worker, task)
                        if terminal_name(first) == _ENVELOPE:
                            candidates.extend(call.args[1:2])
                    for candidate in candidates:
                        if terminal_name(candidate) == _ENVELOPE:
                            continue
                        target = graph.resolve_callable(unit, candidate,
                                                        flow.info)
                        if target is not None:
                            seeds.add(target)
        return sorted(seeds)

    @staticmethod
    def _module_mutables(unit: ModuleUnit) -> Set[str]:
        mutable: Set[str] = set()
        for stmt in unit.tree.body:
            if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                continue
            value = getattr(stmt, "value", None)
            is_mutable = isinstance(value, (ast.Dict, ast.List, ast.Set,
                                            ast.DictComp, ast.ListComp,
                                            ast.SetComp))
            if isinstance(value, ast.Call) and _call_terminal(value) in (
                    "dict", "list", "set", "defaultdict", "Counter",
                    "OrderedDict", "deque"):
                is_mutable = True
            if not is_mutable:
                continue
            targets = stmt.targets if isinstance(stmt, ast.Assign) \
                else [stmt.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    mutable.add(target.id)
        return mutable

    def check_universe(self, context) -> Iterator[Finding]:
        graph = context.callgraph
        reachable = graph.reachable(self._entry_points(context))
        mutables_of: Dict[int, Set[str]] = {}
        for key in sorted(reachable):
            info = graph.functions[key]
            mutable = mutables_of.get(id(info.unit))
            if mutable is None:
                mutable = self._module_mutables(info.unit)
                mutables_of[id(info.unit)] = mutable
            if not mutable:
                continue
            locals_here = {name for stmt in ast.walk(info.node)
                           for name in assignment_keys(stmt)
                           if isinstance(stmt, (ast.Assign, ast.AnnAssign))
                           and not isinstance(stmt, ast.AugAssign)}
            declared_global = {name for node in ast.walk(info.node)
                               if isinstance(node, ast.Global)
                               for name in node.names}
            for node in ast.walk(info.node):
                name: Optional[str] = None
                if isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) \
                        else [node.target]
                    for target in targets:
                        if isinstance(target, ast.Subscript) and \
                                isinstance(target.value, ast.Name):
                            name = target.value.id
                elif isinstance(node, ast.Call) and \
                        isinstance(node.func, ast.Attribute) and \
                        node.func.attr in _MUTATORS and \
                        isinstance(node.func.value, ast.Name):
                    name = node.func.value.id
                if name is None or name not in mutable:
                    continue
                if name in locals_here and name not in declared_global:
                    continue
                yield Finding(
                    rule=self.rule, path=info.unit.rel_path,
                    line=getattr(node, "lineno", 0),
                    column=getattr(node, "col_offset", 0),
                    severity=self.severity,
                    message=(f"{info.qualname}() mutates module global "
                             f"{name!r} and is reachable from a pool worker "
                             f"entry point; the write stays in the worker "
                             f"process and silently diverges from the "
                             f"parent"),
                    item=info.unit.line_at(getattr(node, "lineno", 0)))


class UnenvelopedPoolResultRule(AstRule):
    """CON004: raw pool submissions route through run_task_enveloped."""

    rule = "CON004"
    description = ("ProcessPoolExecutor work must run inside "
                   "run_task_enveloped so task exceptions come back as "
                   "data, distinct from pool infrastructure failures")

    def check(self, unit: ModuleUnit, context) -> Iterator[Finding]:
        for flow in _iter_function_envs(unit, context):
            for _, call in flow.raw_pool_submissions():
                if not call.args:
                    continue
                if _envelope_wrapped(call.args[0]):
                    continue
                yield self.finding(
                    unit, call,
                    f"pool.{call.func.attr}() submits bare work; wrap it "
                    f"in run_task_enveloped (or partial(run_task_enveloped, "
                    f"fn)) so worker exceptions return as envelopes")


CON_RULES = (SharedMemoryPublishRule, UnpicklableSubmissionRule,
             WorkerGlobalMutationRule, UnenvelopedPoolResultRule)
