"""Breadth-first invariant checking with shortest counterexamples.

The checker explores the reachable states of a
:class:`repro.modelcheck.model.TransitionSystem` in breadth-first order.
Because BFS visits states in order of distance from the initial states, the
first state violating the invariant yields a counterexample of *minimum
length* -- the same guarantee the paper relies on from SMV ("SMV produces
the shortest possible trace").

Three engines share the same search semantics:

* the **tuple engine** walks :meth:`successors` transitions directly and
  records labels as it goes (one shared BFS core also drives
  :func:`find_deadlocks` and :func:`find_trace_to`);
* the **packed engine** walks integer state codes (see
  :mod:`repro.modelcheck.encode`) one state and one transition at a time,
  hashing machine ints instead of nested tuples and decoding states only
  when a counterexample is rebuilt.  It enumerates successors in the same
  order as the tuple engine, so both return identical verdicts, counts,
  and traces.  It is the fallback where the array engine cannot run (no
  numpy, node blocks wider than ``uint64``, no ``packed_geometry``) and the
  differential oracle of the array engine's tests;
* the **array engine** (reported as ``"vectorized"``; see
  :mod:`repro.modelcheck.vector`) runs the same level-order search over
  whole BFS levels held as NumPy arrays.  Each level's edges come in the
  packed engine's enumeration order, and one stable sort by target code
  per level (:class:`~repro.modelcheck.vector.LevelDiscovery`) recovers
  every decision the packed loop makes edge by edge: which edge first
  reaches each new state, the per-parent-deduplicated transition count,
  and where ``max_states`` cuts the level.  Under ``engine="auto"`` it
  returns the packed engine's result on every field.  Under
  ``engine="vectorized"`` it adds frontier sharding
  (:mod:`repro.modelcheck.shard`) and differs in one count: on a
  violating level ``states_explored`` includes the whole level (up to
  ``max_states``), not just the states discovered before the violating
  one.
"""

from __future__ import annotations

import time
import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.modelcheck.encode import (
    PackedSystemAdapter,
    compile_packed_invariant,
    have_numpy,
)
from repro.modelcheck.model import TransitionSystem
from repro.modelcheck.state import StateView
from repro.modelcheck.trace import Trace, TraceStep

#: Invariant signature: predicate over a named state view; True = OK.
Invariant = Callable[[StateView], bool]

#: Engine names accepted by :class:`InvariantChecker`.
ENGINES = ("auto", "packed", "tuple", "vectorized")

#: Smallest BFS level the array engine expands with one batch-kernel call
#: instead of one ``packed_successors`` call per state.  A kernel call
#: carries ~100 us of fixed array set-up, so small levels stay scalar.
#: Expansion cost per level, warm tables, states drawn from the first 14
#: levels of the slots=4 full-shifting search, median of 60 draws per
#: size (2-vCPU Xeon):
#:
#:   ======  =======  ======
#:   states  batched  scalar
#:   ======  =======  ======
#:        1   133 us   43 us
#:        8   318 us  200 us
#:       16   366 us  314 us
#:       20   396 us  379 us
#:       24   425 us  460 us
#:       32   440 us  568 us
#:       64   604 us 1074 us
#:   ======  =======  ======
BATCH_MIN_LEVEL = 24


@dataclass
class CheckResult:
    """Outcome of an invariant check."""

    holds: bool
    states_explored: int
    transitions_explored: int
    depth_reached: int
    elapsed_seconds: float
    counterexample: Optional[Trace] = None
    #: True when the search hit a limit before exhausting the state space.
    truncated: bool = False
    #: Which search engine produced the result ("tuple", "packed", or
    #: "vectorized").
    engine: str = "tuple"

    @property
    def verdict(self) -> str:
        if self.holds and not self.truncated:
            return "HOLDS"
        if self.holds and self.truncated:
            return "NO VIOLATION FOUND (search truncated)"
        return "VIOLATED"

    @property
    def states_per_second(self) -> float:
        """Exploration rate (diagnostics/benchmarks)."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.states_explored / self.elapsed_seconds

    def summary(self) -> str:
        lines = [
            f"verdict: {self.verdict}",
            f"states explored: {self.states_explored}",
            f"transitions explored: {self.transitions_explored}",
            f"depth reached: {self.depth_reached}",
            f"elapsed: {self.elapsed_seconds:.3f}s",
        ]
        if self.counterexample is not None:
            lines.append(f"counterexample length: {len(self.counterexample)} steps")
        return "\n".join(lines)


@dataclass
class _SearchState:
    """Outcome of one shared BFS run (tuple engine)."""

    #: parent[state] = (predecessor state or None, transition label).
    parent: Dict[tuple, Any] = field(default_factory=dict)
    depth_of: Dict[tuple, int] = field(default_factory=dict)
    violating: Optional[tuple] = None
    truncated: bool = False
    transitions: int = 0
    max_depth_seen: int = 0
    states_added: int = 0
    deadlocked: List[tuple] = field(default_factory=list)


def _tuple_bfs(system: TransitionSystem,
               invariant: Optional[Invariant] = None,
               collect_deadlocks: bool = False,
               max_states: Optional[int] = None,
               max_depth: Optional[int] = None,
               progress: Optional[Callable[[int, int], None]] = None,
               progress_interval: int = 50_000) -> _SearchState:
    """The one BFS core behind invariant checking and deadlock scanning.

    Stops early (``violating`` set) as soon as ``invariant`` fails on a
    newly discovered state; collects successor-free states when
    ``collect_deadlocks`` is set; flags ``truncated`` whenever a limit
    prevented the search from being exhaustive.
    """
    space = system.space
    search = _SearchState()
    parent = search.parent
    depth_of = search.depth_of
    frontier: deque = deque()

    def add(state: tuple, entry: Tuple[Optional[tuple], Dict[str, Any]],
            depth: int) -> bool:
        """Record a newly discovered state; False ends the search."""
        parent[state] = entry
        depth_of[state] = depth
        search.states_added += 1
        if depth > search.max_depth_seen:
            search.max_depth_seen = depth
        # A monotonic counter (not len(parent) racing past the interval on
        # multi-state seeding) guarantees one firing per interval crossed.
        if progress is not None and search.states_added % progress_interval == 0:
            progress(search.states_added, depth)
        if invariant is not None and not invariant(space.view(state)):
            search.violating = state
            return False
        frontier.append(state)
        return True

    for state in system.initial_states():
        if state in parent:
            continue
        if not add(state, (None, {}), 0):
            return search

    while frontier:
        state = frontier.popleft()
        depth = depth_of[state]
        if max_depth is not None and depth >= max_depth:
            search.truncated = True
            continue
        successor_count = 0
        for transition in system.successors(state):
            search.transitions += 1
            successor_count += 1
            target = transition.target
            if target in parent:
                continue
            if max_states is not None and len(parent) >= max_states:
                search.truncated = True
                continue
            if not add(target, (state, transition.label), depth + 1):
                return search
        if collect_deadlocks and successor_count == 0:
            search.deadlocked.append(state)
    return search


def _rebuild_trace(space, parent: Dict[tuple, Any], violating: tuple) -> Trace:
    chain: List[TraceStep] = []
    state: Optional[tuple] = violating
    while state is not None:
        predecessor, label = parent[state]
        chain.append(TraceStep(state=state, label=label))
        state = predecessor
    chain.reverse()
    return Trace(space=space, steps=chain)


class InvariantChecker:
    """Reusable checker with limits, progress hooks, and engine selection.

    ``engine`` is one of:

    * ``"auto"`` (default) -- the exact array engine when numpy imports
      and the system declares the word layout the vector kernel reads
      (``packed_geometry``) with node blocks that fit ``uint64`` words
      (:func:`repro.modelcheck.vector.represents`); else the packed
      engine when the system has a native packed path
      (``packed_successors`` + ``codec``); else the tuple engine.  The
      array engine returns the packed engine's result on every field but
      ``engine``;
    * ``"packed"`` -- force the scalar packed search; systems without a
      native path are wrapped in
      :class:`~repro.modelcheck.encode.PackedSystemAdapter` (every
      variable must declare a domain);
    * ``"tuple"`` -- force the classic tuple search (a library option:
      :func:`find_trace_to`, :func:`find_deadlocks` and the EXP-P1
      baseline use it);
    * ``"vectorized"`` -- the array engine with frontier sharding
      available; on a violating level it counts the whole level in
      ``states_explored``.  Without numpy or ``packed_geometry`` it
      *warns and falls back* to the packed engine (the result's
      ``engine`` field records what actually ran).

    ``jobs`` (vectorized engine only) shards each large BFS level across
    a worker pool (:class:`repro.modelcheck.shard.FrontierSharder`) --
    parallelism *within one check*, orthogonal to the task-level fan-out
    of :class:`repro.exec.TaskRunner`.  Verdicts, counts, and traces
    are identical to the single-process search.
    """

    def __init__(self, system: TransitionSystem,
                 max_states: Optional[int] = None,
                 max_depth: Optional[int] = None,
                 progress: Optional[Callable[[int, int], None]] = None,
                 progress_interval: int = 50_000,
                 engine: str = "auto",
                 jobs: Optional[int] = None) -> None:
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; pick one of {ENGINES}")
        if jobs is not None and jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.system = system
        self.max_states = max_states
        self.max_depth = max_depth
        self.progress = progress
        self.progress_interval = progress_interval
        self.engine = engine
        self.jobs = jobs

    # -- engine selection ---------------------------------------------------------

    def _packed_system(self) -> Optional[Any]:
        """The packed interface to search, or None for the tuple engine."""
        if self.engine == "tuple":
            return None
        has_native = (hasattr(self.system, "packed_successors")
                      and hasattr(self.system, "codec"))
        if has_native:
            return self.system
        if self.engine in ("packed", "vectorized"):
            return PackedSystemAdapter(self.system)
        return None

    def _array_system(self) -> Optional[Any]:
        """The system to search with the array engine, or None when it
        cannot run and the search falls back to packed (with a warning
        when ``"vectorized"`` was asked for)."""
        has_geometry = hasattr(self.system, "packed_geometry")
        if self.engine == "auto":
            if has_geometry and have_numpy():
                from repro.modelcheck.vector import represents

                block_radix, node_count, _ = self.system.packed_geometry()
                if represents(block_radix, node_count):
                    return self.system
            return None
        if not has_geometry:
            warnings.warn(
                "vectorized engine needs a native batch path "
                "(packed_geometry); falling back to the packed engine",
                RuntimeWarning, stacklevel=3)
            return None
        if not have_numpy():
            warnings.warn(
                "vectorized engine needs numpy; falling back to the "
                "packed engine", RuntimeWarning, stacklevel=3)
            return None
        return self.system

    # -- public API ---------------------------------------------------------------

    def check(self, invariant: Invariant) -> CheckResult:
        """BFS over reachable states, checking ``invariant`` at each."""
        if self.engine in ("auto", "vectorized"):
            array_system = self._array_system()
            if array_system is not None:
                return self._check_levels(array_system, invariant)
        packed = self._packed_system()
        if packed is not None:
            return self._check_packed(packed, invariant)
        return self._check_tuple(invariant)

    # -- tuple engine -------------------------------------------------------------

    def _check_tuple(self, invariant: Invariant) -> CheckResult:
        started = time.perf_counter()
        search = _tuple_bfs(self.system, invariant=invariant,
                            max_states=self.max_states,
                            max_depth=self.max_depth,
                            progress=self.progress,
                            progress_interval=self.progress_interval)
        trace = None
        if search.violating is not None:
            trace = _rebuild_trace(self.system.space, search.parent,
                                   search.violating)
        return CheckResult(holds=search.violating is None,
                           states_explored=len(search.parent),
                           transitions_explored=search.transitions,
                           depth_reached=search.max_depth_seen,
                           elapsed_seconds=time.perf_counter() - started,
                           counterexample=trace,
                           truncated=search.truncated,
                           engine="tuple")

    # -- packed engine ------------------------------------------------------------

    def _check_packed(self, packed: Any, invariant: Invariant) -> CheckResult:
        """Level-order BFS over integer state codes.

        The hot loop touches only ints: parent links are code -> code, the
        invariant is compiled to digit tests where possible, and labels are
        re-derived from the tuple-level transition relation only for the
        (short) counterexample chain.
        """
        started = time.perf_counter()
        codec = packed.codec
        packed_invariant = compile_packed_invariant(invariant, codec)
        successors_of = packed.packed_successors
        max_states = self.max_states
        max_depth = self.max_depth
        progress = self.progress
        progress_interval = self.progress_interval

        #: parent[code] = predecessor code, or None for initial states.
        parent: Dict[int, Optional[int]] = {}
        transitions = 0
        max_depth_seen = 0
        states_added = 0
        truncated = False
        violating: Optional[int] = None

        def make_result() -> CheckResult:
            trace = None
            if violating is not None:
                trace = self._rebuild_packed_trace(packed, parent, violating)
            return CheckResult(holds=violating is None,
                               states_explored=len(parent),
                               transitions_explored=transitions,
                               depth_reached=max_depth_seen,
                               elapsed_seconds=time.perf_counter() - started,
                               counterexample=trace,
                               truncated=truncated,
                               engine="packed")

        current: List[int] = []
        for code in packed.packed_initial_states():
            if code in parent:
                continue
            parent[code] = None
            states_added += 1
            if progress is not None and states_added % progress_interval == 0:
                progress(states_added, 0)
            if not packed_invariant(code):
                violating = code
                return make_result()
            current.append(code)

        depth = 0
        while current:
            if max_depth is not None and depth >= max_depth:
                truncated = True
                break
            next_level: List[int] = []
            for code in current:
                for target in successors_of(code):
                    transitions += 1
                    if target in parent:
                        continue
                    if max_states is not None and len(parent) >= max_states:
                        truncated = True
                        continue
                    parent[target] = code
                    states_added += 1
                    if (progress is not None
                            and states_added % progress_interval == 0):
                        progress(states_added, depth + 1)
                    if not packed_invariant(target):
                        violating = target
                        max_depth_seen = depth + 1
                        return make_result()
                    next_level.append(target)
            if next_level:
                max_depth_seen = depth + 1
            current = next_level
            depth += 1

        return make_result()

    def _rebuild_packed_trace(self, packed: Any,
                              parent: Dict[int, Optional[int]],
                              violating: int) -> Trace:
        """Decode the parent chain and recover labels from the tuple path.

        Only the counterexample chain (tens of states) is ever decoded; the
        label of each edge is the one the tuple engine would have recorded,
        because both engines enumerate successors in the same order and
        keep the first transition reaching each target.
        """
        codes: List[int] = []
        cursor: Optional[int] = violating
        while cursor is not None:
            codes.append(cursor)
            cursor = parent[cursor]
        codes.reverse()
        return self._trace_from_code_chain(packed, codes)

    def _trace_from_code_chain(self, packed: Any, codes: List[int]) -> Trace:
        """Decode a concrete code chain and recover transition labels."""
        codec = packed.codec
        base_system = getattr(packed, "system", packed)
        states = [codec.unpack(code) for code in codes]

        steps: List[TraceStep] = [TraceStep(state=states[0], label={})]
        for position in range(1, len(states)):
            previous = states[position - 1]
            target_code = codes[position]
            label: Dict[str, Any] = {}
            for transition in base_system.successors(previous):
                if codec.pack(transition.target) == target_code:
                    label = transition.label
                    break
            steps.append(TraceStep(state=states[position], label=label))
        return Trace(space=packed.space, steps=steps)

    # -- array engine -------------------------------------------------------------

    def _check_levels(self, system: Any, invariant: Invariant) -> CheckResult:
        """Level-synchronous BFS over NumPy arrays of split packed codes.

        Each level's edges come in the packed engine's enumeration order:
        from one :meth:`VectorKernel.successor_level` call (or the
        sharder) for levels of at least :data:`BATCH_MIN_LEVEL` states,
        from ``packed_successors`` per state below that.  A
        :class:`~repro.modelcheck.vector.LevelDiscovery` resolves them
        against the visited set; the new states stay in discovery order
        with an int32 first-parent row each, so ``max_states`` keeps the
        same prefix the packed loop keeps, the invariant's first hit is
        the packed loop's violating state, and the counterexample is read
        back through the stored parent rows.
        """
        from repro.modelcheck.vector import (
            FusedSeenSet,
            LevelDiscovery,
            SplitSeenSet,
            compile_batch_invariant,
            model_kernel,
        )

        started = time.perf_counter()
        vectorized = self.engine == "vectorized"
        _, _, tail_scale = system.packed_geometry()
        violations = compile_batch_invariant(invariant, system.codec,
                                             tail_scale)
        kernel = model_kernel(system)
        np = kernel.np
        seen = FusedSeenSet(np) if kernel.fused else SplitSeenSet(np)
        sharder = None
        if vectorized and self.jobs is not None and self.jobs > 1:
            from repro.modelcheck.shard import FrontierSharder

            sharder = FrontierSharder(system, jobs=self.jobs)
        max_states = self.max_states
        max_depth = self.max_depth
        progress = self.progress
        progress_interval = self.progress_interval

        def expand(words: Any, tails: Any) -> Tuple[Any, Any, Any]:
            """One level's ``(succ_words, succ_tails, parent_rows)``."""
            if len(words) < BATCH_MIN_LEVEL:
                targets = [system.packed_successors(code)
                           for code in kernel.join_codes(words, tails)]
                parents = np.repeat(np.arange(len(targets)),
                                    [len(codes) for codes in targets])
                succ_words, succ_tails = kernel.split_codes(
                    [code for codes in targets for code in codes])
                return succ_words, succ_tails, parents
            if sharder is not None:
                return sharder.successor_level(words, tails)
            return kernel.successor_level(words, tails, scalar_order=True)

        #: Per depth: the admitted states and their first-parent rows.
        levels: List[Tuple[Any, Any, Any]] = []
        transitions = 0
        states_added = 0
        truncated = False
        max_depth_seen = 0

        def admit(count: int, depth: int) -> None:
            """Count ``count`` more states, firing progress at every
            interval boundary crossed, as the packed loop does."""
            nonlocal states_added
            if progress is not None:
                for crossed in range(states_added // progress_interval + 1,
                                     (states_added + count)
                                     // progress_interval + 1):
                    progress(crossed * progress_interval, depth)
            states_added += count

        def make_result(violating: Optional[int] = None,
                        explored: Optional[int] = None) -> CheckResult:
            trace = None
            if violating is not None:
                codes = []
                row = violating
                for words, tails, parents in reversed(levels):
                    codes.append(int(words[row]) + int(tails[row]) * tail_scale)
                    row = int(parents[row])
                codes.reverse()
                trace = self._trace_from_code_chain(system, codes)
            return CheckResult(holds=violating is None,
                               states_explored=(len(seen) if explored is None
                                                else explored),
                               transitions_explored=transitions,
                               depth_reached=max_depth_seen,
                               elapsed_seconds=time.perf_counter() - started,
                               counterexample=trace,
                               truncated=truncated,
                               engine="vectorized")

        try:
            words, tails = kernel.split_codes(system.packed_initial_states())
            level = LevelDiscovery(kernel, seen, words, tails,
                                   np.zeros(len(words), dtype=np.int64))
            depth = 0
            while True:
                admitted = len(level)
                # Like the packed loop, max_states never cuts the
                # initial states.
                if depth and max_states is not None:
                    admitted = min(admitted, max(0, max_states - len(seen)))
                words = level.words[:admitted]
                tails = level.tails[:admitted]
                hits = np.flatnonzero(violations(words, tails))
                if len(hits):
                    rank = int(hits[0])
                    admit(rank + 1, depth)
                    if depth:
                        transitions += level.transitions_through(rank)
                    max_depth_seen = depth
                    levels.append((words, tails, level.parents))
                    return make_result(rank, len(seen) + (
                        admitted if vectorized else rank + 1))
                admit(admitted, depth)
                if depth:
                    transitions += level.transitions
                truncated |= admitted < len(level)
                if not admitted:
                    break
                level.commit(seen, admitted)
                levels.append((words, tails, level.parents))
                max_depth_seen = depth
                if max_depth is not None and depth >= max_depth:
                    truncated = True
                    break
                level = LevelDiscovery(kernel, seen, *expand(words, tails))
                depth += 1
            return make_result()
        finally:
            if sharder is not None:
                sharder.close()

@dataclass
class DeadlockSearchResult:
    """Outcome of a deadlock scan: the traces plus search metadata.

    Behaves as a sequence of the deadlock traces (``len``, indexing,
    iteration, equality with plain lists), so exhaustive-scan callers can
    keep treating it as the list it used to be -- while bounded scans are
    now distinguishable via :attr:`truncated`.
    """

    traces: List[Trace] = field(default_factory=list)
    #: True when ``max_states`` stopped the scan before exhausting the
    #: reachable space -- absence of deadlocks is then NOT conclusive.
    truncated: bool = False
    states_explored: int = 0

    @property
    def exhaustive(self) -> bool:
        return not self.truncated

    def __len__(self) -> int:
        return len(self.traces)

    def __iter__(self):
        return iter(self.traces)

    def __getitem__(self, index):
        return self.traces[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DeadlockSearchResult):
            return (self.traces == other.traces
                    and self.truncated == other.truncated
                    and self.states_explored == other.states_explored)
        if isinstance(other, list):
            return self.traces == other
        return NotImplemented


def check_invariant(system: TransitionSystem, invariant: Invariant,
                    max_states: Optional[int] = None,
                    max_depth: Optional[int] = None,
                    engine: str = "auto") -> CheckResult:
    """One-shot convenience wrapper over :class:`InvariantChecker`."""
    checker = InvariantChecker(system, max_states=max_states,
                               max_depth=max_depth, engine=engine)
    return checker.check(invariant)


def find_trace_to(system: TransitionSystem, target: Invariant,
                  max_states: Optional[int] = None,
                  max_depth: Optional[int] = None) -> Optional[Trace]:
    """Shortest witness trace to a state satisfying ``target``.

    The EF-reachability dual of :func:`check_invariant`: returns ``None``
    when no reachable state satisfies the predicate (within the limits).
    """
    result = check_invariant(system, lambda view: not target(view),
                             max_states=max_states, max_depth=max_depth,
                             engine="tuple")
    return result.counterexample


def find_deadlocks(system: TransitionSystem,
                   max_states: Optional[int] = None) -> DeadlockSearchResult:
    """Shortest traces to reachable states with no outgoing transitions.

    A synchronous protocol model should be deadlock-free (every state has
    at least the all-stutter successor); a deadlock indicates a modeling
    error, so this is the standard model-hygiene check SMV users run
    alongside their properties.

    Shares the BFS core with :class:`InvariantChecker`; a scan stopped by
    ``max_states`` reports :attr:`DeadlockSearchResult.truncated` so a
    bounded "no deadlocks" is not mistaken for an exhaustive one.
    """
    search = _tuple_bfs(system, collect_deadlocks=True, max_states=max_states)
    traces = [_rebuild_trace(system.space, search.parent, state)
              for state in search.deadlocked]
    return DeadlockSearchResult(traces=traces, truncated=search.truncated,
                                states_explored=len(search.parent))
