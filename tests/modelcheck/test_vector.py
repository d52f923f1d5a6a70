"""Tests for the vectorized frontier engine's building blocks: batched
codec round-trips (hypothesis: whole-array results equal the scalar
codec element by element), the VectorKernel successor pipeline and
LevelDiscovery, the sorted-array visited sets, batch invariant
compilation, and the no-numpy fallback gate."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.authority import CouplerAuthority
from repro.model.properties import no_clique_freeze
from repro.model.scenarios import scenario_for_authority
from repro.model.system_model import TTAStartupModel
from repro.modelcheck import encode
from repro.modelcheck.checker import (BATCH_MIN_LEVEL, InvariantChecker,
                                      _level_bfs)
from repro.modelcheck.encode import NUMPY_HINT, StateCodec, have_numpy, require_numpy
from repro.modelcheck.state import StateSpace, Variable
from repro.modelcheck.vector import (FusedSeenSet, LevelDiscovery, SplitSeenSet,
                                     VectorKernel, compile_batch_invariant,
                                     represents, sort_unique_split)

np = pytest.importorskip("numpy", exc_type=ImportError)


def small_space():
    return StateSpace([
        Variable("mode", domain=("idle", "busy", "done")),
        Variable("count", domain=(0, 1, 2, 3)),
        Variable("flag", domain=(False, True)),
    ])


def reachable_tuple_bfs(system, depth=None):
    """Reference BFS levels via the scalar tuple successors: one sorted
    list of states per depth, at most ``depth`` levels below the initial
    states (every level when ``None``)."""
    seen = set(system.initial_states())
    levels = [sorted(seen)]
    while levels[-1] and (depth is None or len(levels) <= depth):
        successors = set()
        for state in levels[-1]:
            for transition in system.successors(state):
                if transition.target not in seen:
                    successors.add(transition.target)
        seen |= successors
        levels.append(sorted(successors))
    return levels


# ---------------------------------------------------------------------------
# Batched codec round-trips
# ---------------------------------------------------------------------------

@given(st.lists(st.tuples(st.sampled_from(("idle", "busy", "done")),
                          st.sampled_from((0, 1, 2, 3)),
                          st.booleans()),
                max_size=24))
def test_pack_batch_matches_scalar_pack(states):
    codec = StateCodec(small_space())
    codes = codec.pack_batch(states)
    assert len(codes) == len(states)
    assert [int(code) for code in codes] == [codec.pack(state)
                                             for state in states]


@given(st.data())
@settings(max_examples=50)
def test_unpack_digits_matches_scalar_unpack(data):
    """Column j of unpack_digits holds the domain index of variable j --
    on arbitrarily shaped spaces, including >63-bit (object dtype)."""
    variable_count = data.draw(st.integers(min_value=1, max_value=6))
    wide = data.draw(st.booleans())
    variables = []
    for position in range(variable_count):
        size = data.draw(st.integers(min_value=1, max_value=7))
        if wide:  # force the big-int fallback path
            size = data.draw(st.integers(min_value=900, max_value=1000))
        domain = tuple(f"v{position}_{index}" for index in range(size))
        variables.append(Variable(f"x{position}", domain=domain))
    codec = StateCodec(StateSpace(variables))
    states = [tuple(data.draw(st.sampled_from(variable.domain))
                    for variable in variables)
              for _ in range(data.draw(st.integers(min_value=0, max_value=8)))]
    codes = codec.pack_batch(states)
    digits = codec.unpack_digits(codes)
    assert digits.shape == (len(states), variable_count)
    for row, state in enumerate(states):
        decoded = tuple(variables[position].domain[digits[row, position]]
                        for position in range(variable_count))
        assert decoded == state
    assert codec.unpack_batch(codes) == states


def test_unpack_digits_rejects_out_of_range():
    codec = StateCodec(small_space())
    with pytest.raises(ValueError, match="outside"):
        codec.unpack_digits(np.asarray([codec.size], dtype=np.uint64))


def test_fits_uint64_decides_code_dtype():
    assert StateCodec(small_space()).fits_uint64
    wide = StateCodec(StateSpace(
        [Variable(f"x{i}", domain=tuple(range(1000))) for i in range(8)]))
    assert not wide.fits_uint64
    assert wide.pack_batch([(999,) * 8]).dtype == object


# ---------------------------------------------------------------------------
# Kernel parity with the scalar model
# ---------------------------------------------------------------------------

def test_kernel_successor_level_matches_scalar_successors():
    """One level of the batched pipeline produces exactly the scalar
    (parent, target) relation.  Edge counts may still differ (two fault
    contexts with different option sets can reach one target), so parity
    is on the relation, with exact-count parity covered by the
    LevelDiscovery tests."""
    system = TTAStartupModel(
        scenario_for_authority(CouplerAuthority.SMALL_SHIFTING))
    system.ensure_packed_tables()
    kernel = VectorKernel(system)
    codec = system.codec
    frontier = sorted(codec.pack(state) for state in system.initial_states())
    words, tails = kernel.split_codes(frontier)
    succ_words, succ_tails, parent = kernel.successor_level(words, tails)
    expected = set()
    for row, state in enumerate(sorted(system.initial_states())):
        for transition in system.successors(state):
            expected.add((row, codec.pack(transition.target)))
    produced = set(zip(parent.tolist(),
                       kernel.join_codes(succ_words, succ_tails)))
    assert produced == expected


def seen_set(kernel, words, tails):
    """A visited set holding the states ``(words, tails)``."""
    if kernel.fused:
        seen = FusedSeenSet(np)
        seen.insert(np.unique(kernel.fuse(words, tails)))
    else:
        seen = SplitSeenSet(np)
        seen.insert(*sort_unique_split(np, words, tails))
    return seen


def test_kernel_successors_batch_deduplicates_per_parent():
    """A one-parent level through :class:`LevelDiscovery` over an empty
    visited set keeps each target once: exactly the scalar successor
    set, in ``packed_successors`` order, and one transition per distinct
    target."""
    system = TTAStartupModel(
        scenario_for_authority(CouplerAuthority.FULL_SHIFTING))
    system.ensure_packed_tables()
    kernel = VectorKernel(system)
    codec = system.codec
    empty = kernel.split_codes([])
    for state in system.initial_states():
        code = codec.pack(state)
        discovery = LevelDiscovery(
            kernel, seen_set(kernel, *empty), *kernel.successor_level(
                *kernel.split_codes([code])))
        batched = kernel.join_codes(discovery.words, discovery.tails)
        assert len(set(batched)) == len(batched)
        assert sorted(batched) == sorted(
            {codec.pack(transition.target)
             for transition in system.successors(state)})
        assert tuple(batched) == system.packed_successors(code)
        assert discovery.transitions == len(batched)
        assert set(discovery.parents.tolist()) <= {0}


def level_codes(system, search):
    """The packed codes of a level-loop run, level by level in discovery
    order."""
    kernel = VectorKernel(system)
    return [code for words, tails, _ in search.levels
            for code in kernel.join_codes(words, tails)]


@pytest.mark.parametrize("authority", [CouplerAuthority.PASSIVE,
                                       CouplerAuthority.FULL_SHIFTING],
                         ids=["passive", "full_shifting"])
def test_level_loop_reaches_exactly_the_scalar_reachable_set(authority):
    system = TTAStartupModel(scenario_for_authority(authority))
    search = _level_bfs(system)
    reached = level_codes(system, search)
    expected = {system.codec.pack(state)
                for level in reachable_tuple_bfs(system) for state in level}
    assert len(reached) == search.committed == len(expected)
    assert set(reached) == expected
    assert not search.truncated


def packed_discovery_order(system, limit):
    """The first ``limit`` states the scalar packed loop discovers."""
    order = list(dict.fromkeys(system.packed_initial_states()))
    seen = set(order)
    position = 0
    while position < len(order) and len(order) < limit:
        for target in system.packed_successors(order[position]):
            if target not in seen and len(order) < limit:
                seen.add(target)
                order.append(target)
        position += 1
    return order


def test_level_loop_limit_keeps_the_scalar_prefix():
    """``max_states`` cuts a batched level mid-way and keeps exactly the
    states the scalar packed loop discovers first, in its order."""
    system = TTAStartupModel(scenario_for_authority(CouplerAuthority.PASSIVE))
    search = _level_bfs(system, max_states=1000)
    reached = level_codes(system, search)
    assert search.truncated
    assert search.committed == 1000
    assert reached == packed_discovery_order(system, 1000)
    assert max(len(words) for words, _, _ in search.levels) >= BATCH_MIN_LEVEL


def reachable_frontier(authority, depth):
    """The BFS level ``depth`` steps below the initial states."""
    system = TTAStartupModel(scenario_for_authority(authority))
    return system, [system.codec.pack(state)
                    for state in reachable_tuple_bfs(system, depth)[depth]]


def successors_by_parent(kernel, codes):
    """The scalar-order successors of ``codes`` as {parent code: [target
    codes]}, each parent's repeated targets dropped."""
    succ_words, succ_tails, parent = kernel.successor_level(
        *kernel.split_codes(codes))
    by_parent = {code: [] for code in codes}
    for row, target in zip(parent.tolist(),
                           kernel.join_codes(succ_words, succ_tails)):
        targets = by_parent[codes[row]]
        if target not in targets:
            targets.append(target)
    return by_parent


FRONTIER_SYSTEM, FRONTIER = reachable_frontier(CouplerAuthority.FULL_SHIFTING,
                                               depth=3)
ONE_SHOT = successors_by_parent(VectorKernel(FRONTIER_SYSTEM), FRONTIER)


@given(st.randoms(use_true_random=False),
       st.integers(min_value=1, max_value=len(FRONTIER)))
@settings(max_examples=25, deadline=None)
def test_kernel_results_do_not_depend_on_local_id_order(rng, chunk):
    """Local ids are interned in first-seen order, so feeding one frontier
    in a different order and in pieces assigns different ids; the
    successors of every parent must not change."""
    order = list(FRONTIER)
    rng.shuffle(order)
    kernel = VectorKernel(FRONTIER_SYSTEM)
    chunked = {}
    for start in range(0, len(order), chunk):
        chunked.update(successors_by_parent(kernel, order[start:start + chunk]))
    assert chunked == ONE_SHOT
    for code, targets in ONE_SHOT.items():
        assert tuple(targets) == FRONTIER_SYSTEM.packed_successors(code)


#: Configurations for the order test: full shifting at slots=4 has
#: multi-option rows (several next locals for one node); slots=3 covers
#: every out-of-slot budget shape.
ORDER_CONFIGS = {
    "full_shifting-4": (CouplerAuthority.FULL_SHIFTING, 4, 1),
    "full_shifting-3-unlimited": (CouplerAuthority.FULL_SHIFTING, 3, None),
    "full_shifting-3-budget1": (CouplerAuthority.FULL_SHIFTING, 3, 1),
    "full_shifting-3-budget2": (CouplerAuthority.FULL_SHIFTING, 3, 2),
    "small_shifting-3-budget2": (CouplerAuthority.SMALL_SHIFTING, 3, 2),
}
_ORDER_POOLS = {}


def order_pool(name):
    """A model and the states of its first 10 BFS levels (cached)."""
    if name not in _ORDER_POOLS:
        authority, slots, budget = ORDER_CONFIGS[name]
        system = TTAStartupModel(scenario_for_authority(
            authority, slots=slots, out_of_slot_budget=budget))
        _ORDER_POOLS[name] = (system, sorted(
            system.codec.pack(state)
            for level in reachable_tuple_bfs(system, 10) for state in level))
    return _ORDER_POOLS[name]


def test_order_pools_have_multi_option_rows(monkeypatch):
    """The slots=4 pool really exercises the mixed-radix decode: some
    node of some frontier row has several next local codes under one
    channel pair, so that row has more successors than fault contexts."""
    system, codes = order_pool("full_shifting-4")
    widths = []
    options_of = system.node_option_codes

    def recording(*key):
        options = options_of(*key)
        widths.append(len(options))
        return options

    monkeypatch.setattr(system, "node_option_codes", recording)
    kernel = VectorKernel(system)
    kernel.successor_level(*kernel.split_codes(codes))
    assert max(widths) > 1


@given(st.sampled_from(sorted(ORDER_CONFIGS)), st.randoms(use_true_random=False),
       st.integers(min_value=1, max_value=200))
@settings(max_examples=40, deadline=None)
def test_successors_batch_matches_scalar_order(name, rng, size):
    """For every parent of a random reachable frontier, the kernel's
    scalar-order edges less their per-parent repeats are exactly the
    ``packed_successors`` tuple, order included."""
    system, pool = order_pool(name)
    codes = rng.sample(pool, min(size, len(pool)))
    by_parent = successors_by_parent(VectorKernel(system), codes)
    for code in codes:
        assert tuple(by_parent[code]) == system.packed_successors(code)


@given(st.sampled_from(sorted(ORDER_CONFIGS)), st.randoms(use_true_random=False),
       st.integers(min_value=1, max_value=200))
@settings(max_examples=40, deadline=None)
def test_level_discovery_matches_scalar_order(name, rng, size):
    """Over a random reachable frontier that is itself visited, as in a
    BFS, :class:`LevelDiscovery` drops the per-parent repeats
    (transition count) and finds the new states in the scalar loop's
    discovery order, each with its first parent."""
    system, pool = order_pool(name)
    codes = rng.sample(pool, min(size, len(pool)))
    kernel = VectorKernel(system)
    words, tails = kernel.split_codes(codes)
    discovery = LevelDiscovery(kernel, seen_set(kernel, words, tails),
                               *kernel.successor_level(words, tails))
    known = set(codes)
    transitions = 0
    new_states, first_parents = [], []
    for row, code in enumerate(codes):
        for target in system.packed_successors(code):
            transitions += 1
            if target not in known:
                known.add(target)
                new_states.append(target)
                first_parents.append(row)
    assert discovery.transitions == transitions
    assert kernel.join_codes(discovery.words, discovery.tails) == new_states
    assert discovery.parents.tolist() == first_parents


@pytest.mark.parametrize("authority, states, bound", [
    (CouplerAuthority.PASSIVE, 14772, 30_000),
    (CouplerAuthority.FULL_SHIFTING, 20806, 50_000),
], ids=["passive", "full_shifting"])
def test_level_kernel_expands_no_repeat_rows(monkeypatch, authority, states,
                                             bound):
    """A fault context that gives every node of a parent the same option
    set and the same next tail as an earlier context of that parent only
    repeats the parent's edges, so the kernel drops its row before the
    cartesian expansion.  Expanding every row, one cold slots=4 check
    takes 89,049 kernel edges on passive and 117,297 on full shifting."""
    edges = []
    level = VectorKernel.successor_level

    def counting(self, words, tails):
        produced = level(self, words, tails)
        edges.append(len(produced[0]))
        return produced

    monkeypatch.setattr(VectorKernel, "successor_level", counting)
    config = scenario_for_authority(authority)
    result = InvariantChecker(TTAStartupModel(config)).check(
        no_clique_freeze(config))
    assert result.engine == "vectorized"
    assert result.states_explored == states
    assert edges and sum(edges) <= bound


def test_kernel_matches_scalar_order_with_empty_option_sets(monkeypatch):
    """The model never leaves a node without a next state, but the kernel
    stays exact if a node-step gave an empty option set: that row has no
    successors, whether or not another row gives the node several
    options, and its pool offset is no other option set's, so no row
    with successors is dropped as its repeat."""
    system = TTAStartupModel(scenario_for_authority(
        CouplerAuthority.FULL_SHIFTING, slots=3, out_of_slot_budget=2))
    codes = sorted(system.codec.pack(state)
                   for level in reachable_tuple_bfs(system, 8)
                   for state in level)
    option_codes = system.node_option_codes
    emptied = []

    def sometimes_empty(node_index, local_code, pair_key):
        if node_index == 1 and pair_key % 3 == 0:
            emptied.append(pair_key)
            return ()
        return option_codes(node_index, local_code, pair_key)

    monkeypatch.setattr(system, "node_option_codes", sometimes_empty)
    kernel = VectorKernel(system)
    by_parent = successors_by_parent(kernel, codes)
    for code in codes:
        assert tuple(by_parent[code]) == system.packed_successors(code)
        assert successors_by_parent(kernel, [code]) == {code: by_parent[code]}
    assert emptied
    filled = kernel._counts >= 0
    sets_at = {}
    for offset, count in zip(kernel._offsets[filled].tolist(),
                             kernel._counts[filled].tolist()):
        start = max(offset, 0)
        sets_at.setdefault(offset, set()).add(
            tuple(kernel._options[start:start + count].tolist()))
    assert all(len(sets) == 1 for sets in sets_at.values())


def test_kernel_rejects_node_blocks_wider_than_uint64():
    system = TTAStartupModel(scenario_for_authority(CouplerAuthority.PASSIVE,
                                                    slots=5))
    block_radix, node_count, _ = system.packed_geometry()
    assert not represents(block_radix, node_count)
    with pytest.raises(ValueError, match="63 bits"):
        VectorKernel(system)


def test_vectorized_check_memory_stays_small():
    """The step tables cover only the local codes a search reaches: one
    slots=4 vectorized check peaks far below the dense local-axis tables
    (about 100 MB)."""
    import tracemalloc

    from repro.core.verification import verify_authority

    tracemalloc.start()
    try:
        result = verify_authority(CouplerAuthority.PASSIVE, slots=4,
                                  engine="vectorized")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.check.engine == "vectorized"
    assert result.check.states_explored == 14772
    assert peak <= 16 * 2 ** 20


# ---------------------------------------------------------------------------
# Visited sets
# ---------------------------------------------------------------------------

def test_fused_seen_set_filters_and_merges_sorted():
    seen = FusedSeenSet(np)
    first = np.asarray([5, 9, 20], dtype=np.uint64)
    assert seen.filter_new(first).all()  # nothing seen yet
    seen.insert(first)
    assert len(seen) == 3
    probe = np.asarray([1, 5, 9, 10, 21], dtype=np.uint64)
    mask = seen.filter_new(probe)
    assert probe[mask].tolist() == [1, 10, 21]
    seen.insert(probe[mask])
    assert len(seen) == 6
    probe = np.asarray([1, 2, 5, 9, 10, 20, 21, 22], dtype=np.uint64)
    assert probe[seen.filter_new(probe)].tolist() == [2, 22]


def test_split_seen_set_buckets_by_tail():
    seen = SplitSeenSet(np)
    words = np.asarray([3, 3, 7], dtype=np.uint64)  # sorted by (tail, word)
    tails = np.asarray([0, 1, 1], dtype=np.int64)
    assert seen.filter_new(words, tails).all()
    seen.insert(words, tails)
    assert len(seen) == 3
    assert not seen.filter_new(words, tails).any()
    mixed_words = np.asarray([3, 5, 7], dtype=np.uint64)
    mixed_tails = np.asarray([1, 1, 1], dtype=np.int64)
    assert seen.filter_new(mixed_words, mixed_tails).tolist() == [
        False, True, False]
    # Word 7 is a member under tail 1 only.
    assert seen.filter_new(np.asarray([7], dtype=np.uint64),
                           np.asarray([0], dtype=np.int64)).tolist() == [True]


def test_sort_unique_split_orders_by_tail_then_word():
    words = np.asarray([9, 2, 9, 2], dtype=np.uint64)
    tails = np.asarray([1, 1, 0, 1], dtype=np.int64)
    out_words, out_tails = sort_unique_split(np, words, tails)
    assert list(zip(out_tails.tolist(), out_words.tolist())) == [
        (0, 9), (1, 2), (1, 9)]


# ---------------------------------------------------------------------------
# Batch invariant compilation
# ---------------------------------------------------------------------------

def test_compile_batch_invariant_matches_scalar_on_model():
    config = scenario_for_authority(CouplerAuthority.FULL_SHIFTING)
    system = TTAStartupModel(config)
    system.ensure_packed_tables()
    invariant = no_clique_freeze(config)
    kernel = VectorKernel(system)
    _, _, tail_scale = system.packed_geometry()
    violations = compile_batch_invariant(invariant, system.codec, tail_scale)
    codes = sorted({system.codec.pack(state)
                    for level in reachable_tuple_bfs(system)
                    for state in level})
    words, tails = kernel.split_codes(codes)
    mask = violations(words, tails)
    for index, code in enumerate(codes):
        assert bool(mask[index]) == (not invariant(system.codec.view(code)))
    assert bool(mask.any())  # full shifting violates the property


def test_compile_batch_invariant_scalar_fallback_for_opaque_predicates():
    config = scenario_for_authority(CouplerAuthority.PASSIVE)
    system = TTAStartupModel(config)
    system.ensure_packed_tables()
    kernel = VectorKernel(system)
    _, _, tail_scale = system.packed_geometry()

    def opaque(view):  # no forbidden_assignments attribute
        return view.a_state != "freeze_clique"

    violations = compile_batch_invariant(opaque, system.codec, tail_scale)
    codes = sorted(system.codec.pack(state)
                   for state in system.initial_states())
    words, tails = kernel.split_codes(codes)
    mask = violations(words, tails)
    assert mask.shape == (len(codes),)
    assert not mask.any()


# ---------------------------------------------------------------------------
# No-numpy degradation
# ---------------------------------------------------------------------------

def test_require_numpy_error_names_the_fallback(monkeypatch):
    monkeypatch.setattr(encode, "_np", None)
    assert not have_numpy()
    with pytest.raises(ImportError, match="packed"):
        require_numpy()
    assert "numpy" in NUMPY_HINT


def test_checker_falls_back_to_packed_without_numpy(monkeypatch):
    monkeypatch.setattr(encode, "_np", None)
    config = scenario_for_authority(CouplerAuthority.PASSIVE)
    checker = InvariantChecker(TTAStartupModel(config), engine="vectorized")
    with pytest.warns(RuntimeWarning, match="numpy"):
        result = checker.check(no_clique_freeze(config))
    assert result.engine == "packed"
    assert result.holds


def test_auto_engine_falls_back_to_packed_without_numpy(monkeypatch):
    """Without numpy ``auto`` runs the scalar packed engine, silently."""
    import warnings

    monkeypatch.setattr(encode, "_np", None)
    config = scenario_for_authority(CouplerAuthority.PASSIVE)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = InvariantChecker(TTAStartupModel(config)).check(
            no_clique_freeze(config))
    assert result.engine == "packed"
    assert result.states_explored == 14772
