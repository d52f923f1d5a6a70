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
  :func:`find_deadlocks`);
* the **packed engine** walks integer state codes (see
  :mod:`repro.modelcheck.encode`), hashing machine ints instead of nested
  tuples and decoding states only when a counterexample is rebuilt.  It is
  selected automatically for systems with a native packed path (the TTA
  startup model) and enumerates successors in the same order as the tuple
  engine, so both return identical verdicts, counts, and traces.  Levels
  of at least :data:`BATCH_MIN_LEVEL` states get their successors from one
  call of the batch kernel, which returns them in that same order;
* the **vectorized engine** (see :mod:`repro.modelcheck.vector`) processes
  whole BFS levels as NumPy arrays of packed codes, optionally under
  symmetry reduction (:mod:`repro.modelcheck.symmetry`).  It visits the
  same reachable set and returns the same verdict and a shortest
  counterexample, but completes each level before testing the invariant
  (so on violating configurations ``states_explored`` counts the full
  violating level) and reports *raw* enumerated transitions (duplicate
  successors of one parent are not collapsed).
"""

from __future__ import annotations

import time
import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.modelcheck.encode import (
    PackedSystemAdapter,
    compile_packed_invariant,
    have_numpy,
    require_numpy,
)
from repro.modelcheck.model import TransitionSystem
from repro.modelcheck.state import StateView
from repro.modelcheck.trace import Trace, TraceStep

#: Invariant signature: predicate over a named state view; True = OK.
Invariant = Callable[[StateView], bool]

#: Engine names accepted by :class:`InvariantChecker`.
ENGINES = ("auto", "packed", "tuple", "vectorized")

#: Smallest BFS level the packed engine expands with one batch-kernel call
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


def _batch_expander(packed: Any
                    ) -> Optional[Callable[[List[int]],
                                           Iterable[Tuple[int, int]]]]:
    """A whole-level ``codes -> (parent, target) edges`` expander over the
    system's batch kernel, or None where the kernel cannot run: no native
    batch path, no numpy, or node blocks wider than its ``uint64`` words
    (slots >= 5)."""
    if not (hasattr(packed, "packed_successors_batch")
            and hasattr(packed, "packed_geometry") and have_numpy()):
        return None
    from repro.modelcheck.vector import represents

    block_radix, node_count, tail_scale = packed.packed_geometry()
    if not represents(block_radix, node_count):
        return None
    np = require_numpy()

    def expand(codes: List[int]) -> Iterable[Tuple[int, int]]:
        split = [divmod(code, tail_scale) for code in codes]
        words = np.array([word for _, word in split], dtype=np.uint64)
        tails = np.array([tail for tail, _ in split], dtype=np.int64)
        succ_words, succ_tails, rows = packed.packed_successors_batch(words,
                                                                      tails)
        # Python ints: full-shifting codes are 72 bits wide.
        return zip([codes[row] for row in rows.tolist()],
                   [word + tail * tail_scale for word, tail
                    in zip(succ_words.tolist(), succ_tails.tolist())])

    return expand


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

    * ``"auto"`` (default) -- the packed engine when the system provides a
      native packed path (``packed_successors`` + ``codec``), the tuple
      engine otherwise;
    * ``"packed"`` -- force packed search; systems without a native path
      are wrapped in :class:`~repro.modelcheck.encode.PackedSystemAdapter`
      (every variable must declare a domain);
    * ``"tuple"`` -- force the classic tuple search;
    * ``"vectorized"`` -- batched NumPy frontier search; needs numpy and
      a system with a native batch path (``packed_successors_batch`` +
      ``packed_geometry``), otherwise it *warns and falls back* to the
      packed engine (the result's ``engine`` field records what actually
      ran).

    ``symmetry`` (vectorized engine only) enables rotational symmetry
    reduction when it is provably sound for the model and invariant at
    hand (see :class:`repro.modelcheck.symmetry.RotationGroup`); pass
    ``False`` -- the CLI's ``--no-symmetry`` -- to force the full search.

    ``jobs`` (vectorized engine only) shards each BFS level across a
    worker pool (:class:`repro.modelcheck.shard.FrontierSharder`) --
    parallelism *within one check*, orthogonal to the task-level fan-out
    of :mod:`repro.modelcheck.parallel`.  Verdicts, counts, and traces
    are identical to the single-process search.
    """

    def __init__(self, system: TransitionSystem,
                 max_states: Optional[int] = None,
                 max_depth: Optional[int] = None,
                 progress: Optional[Callable[[int, int], None]] = None,
                 progress_interval: int = 50_000,
                 engine: str = "auto",
                 symmetry: bool = True,
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
        self.symmetry = symmetry
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

    def _vectorized_system(self) -> Optional[Any]:
        """The system to vector-search, or None (with a warning) when the
        vectorized engine cannot run and must fall back to packed."""
        if not (hasattr(self.system, "packed_successors_batch")
                and hasattr(self.system, "packed_geometry")):
            warnings.warn(
                "vectorized engine needs a native batch path "
                "(packed_successors_batch); falling back to the packed "
                "engine", RuntimeWarning, stacklevel=3)
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
        if self.engine == "vectorized":
            vectorized = self._vectorized_system()
            if vectorized is not None:
                return self._check_vectorized(vectorized, invariant)
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
        (short) counterexample chain.  Each level's ``(parent, target)``
        edges come either from one batch-kernel call or from one
        ``packed_successors`` call per state; both yield the same edges in
        the same order, so the walk over them decides identically.
        """
        started = time.perf_counter()
        codec = packed.codec
        packed_invariant = compile_packed_invariant(invariant, codec)
        successors_of = packed.packed_successors
        expand_level = _batch_expander(packed)
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
            if expand_level is not None and len(current) >= BATCH_MIN_LEVEL:
                edges: Iterable[Tuple[int, int]] = expand_level(current)
            else:
                edges = ((code, target) for code in current
                         for target in successors_of(code))
            for code, target in edges:
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

    # -- vectorized engine --------------------------------------------------------

    def _check_vectorized(self, system: Any, invariant: Invariant) -> CheckResult:
        """Whole-level BFS over NumPy arrays of split packed codes.

        Each level is expanded, deduplicated, committed, and *then*
        tested against the invariant as one batch; the first violating
        state in code order yields the counterexample (same minimum
        length as the scalar engines, since both search level by level).
        Under symmetry reduction the search runs in the quotient space
        and the counterexample is mapped back to a concrete run.
        """
        from repro.modelcheck.symmetry import RotationGroup
        from repro.modelcheck.vector import (
            VectorExplorer,
            compile_batch_invariant,
        )

        started = time.perf_counter()
        codec = system.codec
        _, _, tail_scale = system.packed_geometry()
        violations = compile_batch_invariant(invariant, codec, tail_scale)
        group = RotationGroup.build(system, invariant=invariant,
                                    enabled=self.symmetry)
        canonical = None if group.trivial else group.canonicalize
        sharder = None
        expander = None
        if self.jobs is not None and self.jobs > 1:
            from repro.modelcheck.shard import FrontierSharder

            sharder = FrontierSharder(system, jobs=self.jobs,
                                      use_symmetry=not group.trivial)
            expander = sharder.successor_level
        explorer = VectorExplorer(system, canonical=canonical,
                                  expander=expander)
        max_states = self.max_states
        max_depth = self.max_depth
        progress = self.progress
        progress_interval = self.progress_interval

        levels: List[Tuple[Any, Any]] = []
        transitions = 0
        states_added = 0
        progress_fired = 0
        truncated = False
        violating: Optional[int] = None
        max_depth_seen = 0

        def make_result() -> CheckResult:
            trace = None
            if violating is not None:
                trace = self._rebuild_vectorized_trace(
                    system, explorer, group, levels, violating)
            return CheckResult(holds=violating is None,
                               states_explored=explorer.seen_count,
                               transitions_explored=transitions,
                               depth_reached=max_depth_seen,
                               elapsed_seconds=time.perf_counter() - started,
                               counterexample=trace,
                               truncated=truncated,
                               engine="vectorized")

        def absorb_level(words: Any, tails: Any, depth: int) -> Optional[int]:
            """Track one committed batch; the violating code, if any."""
            nonlocal states_added, progress_fired, max_depth_seen
            if len(words) == 0:
                return None
            levels.append((words, tails))
            if depth > max_depth_seen:
                max_depth_seen = depth
            states_added += len(words)
            # Batch-granular progress: fire once per interval boundary the
            # batch crossed, reporting the boundary value so downstream
            # consumers see the same monotonic sequence as the scalar
            # engines (which fire exactly at each crossing).
            while (progress is not None
                   and states_added // progress_interval > progress_fired):
                progress_fired += 1
                progress(progress_fired * progress_interval, depth)
            mask = violations(words, tails)
            hits = explorer.np.flatnonzero(mask)
            if len(hits):
                first = int(hits[0])
                return int(words[first]) + int(tails[first]) * tail_scale
            return None

        try:
            words, tails, over = explorer.initial_level(limit=max_states)
            truncated |= over
            violating = absorb_level(words, tails, 0)
            if violating is not None:
                return make_result()

            depth = 0
            while len(words):
                if max_depth is not None and depth >= max_depth:
                    truncated = True
                    break
                remaining: Optional[int] = None
                if max_states is not None:
                    remaining = max_states - explorer.seen_count
                    if remaining <= 0:
                        truncated = True
                        break
                words, tails, raw, over = explorer.step(words, tails,
                                                        limit=remaining)
                transitions += raw
                truncated |= over
                violating = absorb_level(words, tails, depth + 1)
                if violating is not None:
                    return make_result()
                depth += 1

            return make_result()
        finally:
            if sharder is not None:
                sharder.close()

    def _rebuild_vectorized_trace(self, system: Any, explorer: Any,
                                  group: Any, levels: List[Tuple[Any, Any]],
                                  violating: int) -> Trace:
        """Shortest concrete trace from the per-level state batches.

        The vectorized search keeps no parent links; instead the (short)
        counterexample chain is recovered backwards by re-expanding each
        stored level with the batch kernel and selecting, per hop, the
        smallest-code predecessor.  Under symmetry the chain lives in the
        quotient space and is first mapped back to a concrete run (see
        :func:`repro.modelcheck.symmetry.decanonicalize_trace`).
        """
        from repro.modelcheck.symmetry import decanonicalize_trace

        np = explorer.np
        kernel = explorer.kernel
        tail_scale = kernel.tail_scale
        chain = [violating]
        target = violating
        for level_words, level_tails in reversed(levels[:-1]):
            succ_words, succ_tails, parents = kernel.successor_level(
                level_words, level_tails)
            if not group.trivial:
                succ_words, succ_tails = group.canonicalize(succ_words,
                                                            succ_tails)
            target_tail, target_word = divmod(target, tail_scale)
            match = np.flatnonzero(
                (succ_tails == target_tail)
                & (succ_words == np.uint64(target_word)))
            if len(match) == 0:  # pragma: no cover - BFS guarantees a parent
                raise AssertionError(
                    "stored level has no predecessor of the counterexample")
            candidates = parents[match]
            candidate_words = level_words[candidates]
            candidate_tails = level_tails[candidates]
            best = np.lexsort((candidate_words, candidate_tails))[0]
            target = (int(candidate_words[best])
                      + int(candidate_tails[best]) * tail_scale)
            chain.append(target)
        chain.reverse()
        if not group.trivial:
            chain = decanonicalize_trace(system, group, chain)
        return self._trace_from_code_chain(system, chain)


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
                    engine: str = "auto",
                    symmetry: bool = True) -> CheckResult:
    """One-shot convenience wrapper over :class:`InvariantChecker`."""
    checker = InvariantChecker(system, max_states=max_states,
                               max_depth=max_depth, engine=engine,
                               symmetry=symmetry)
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
