"""Property-based structural invariants of the formal model.

These pin the well-formedness of the Section 4 model itself: totality of
the transition relation, canonicalization of unused variables (so that
semantically identical states collapse in the explicit-state search), and
pack/unpack consistency of the composed state.
"""

from hypothesis import given, strategies as st

from repro.core.authority import CouplerAuthority
from repro.model.config import ModelConfig
from repro.model.coupler_model import (
    KIND_BAD_FRAME,
    KIND_C_STATE,
    KIND_COLD_START,
    KIND_NONE,
    ChannelContent,
)
from repro.model.node_model import (
    SLOTTED_STATES,
    ST_ACTIVE,
    ST_COLD_START,
    ST_FREEZE,
    ST_FREEZE_CLIQUE,
    ST_INIT,
    ST_LISTEN,
    ST_PASSIVE,
    NodeLocal,
    node_observation,
    node_step,
)
from repro.model.scenarios import scenario_for_authority
from repro.model.system_model import TTAStartupModel
from tests.model.reference_node_step import reference_node_step

CONFIG = ModelConfig()

node_states = st.sampled_from([ST_FREEZE, ST_FREEZE_CLIQUE, ST_INIT,
                               ST_LISTEN, ST_COLD_START, ST_ACTIVE,
                               ST_PASSIVE])
slots = st.integers(min_value=0, max_value=4)
timeouts = st.integers(min_value=0, max_value=8)
counters = st.integers(min_value=0, max_value=CONFIG.counter_cap)
kinds = st.sampled_from([KIND_NONE, KIND_COLD_START, KIND_C_STATE,
                         KIND_BAD_FRAME])
frame_ids = st.integers(min_value=0, max_value=4)


@st.composite
def locals_(draw):
    """A (possibly non-canonical) node-local state, normalized just enough
    to be within the variable domains the model uses."""
    state = draw(node_states)
    slot = draw(slots)
    if state in SLOTTED_STATES:
        slot = max(1, slot)
    else:
        slot = 0
    timeout = draw(timeouts) if state == ST_LISTEN else 0
    big_bang = draw(st.booleans()) if state == ST_LISTEN else False
    agreed = draw(counters) if state in SLOTTED_STATES else 0
    failed = draw(counters) if state in SLOTTED_STATES else 0
    return NodeLocal(state, slot, big_bang, timeout, agreed, failed)


@st.composite
def channels(draw):
    def one(kind, frame_id):
        if kind in (KIND_NONE, KIND_BAD_FRAME):
            frame_id = 0
        else:
            frame_id = max(1, frame_id)
        return ChannelContent(kind=kind, frame_id=frame_id)

    return (one(draw(kinds), draw(frame_ids)),
            one(draw(kinds), draw(frame_ids)))


@given(locals_(), channels(), st.integers(min_value=1, max_value=4))
def test_node_step_is_total(local, channel_pair, node_id):
    """Every (state, observation) pair has at least one successor."""
    options = node_step(CONFIG, node_id, local, channel_pair)
    assert len(options) >= 1


@given(locals_(), channels(), st.integers(min_value=1, max_value=4))
def test_node_step_canonicalizes_unused_variables(local, channel_pair, node_id):
    """Unused variables stay at their canonical values in every successor,
    so the explicit-state search never distinguishes equivalent states."""
    for option in node_step(CONFIG, node_id, local, channel_pair):
        if option.state not in (ST_LISTEN,):
            assert option.timeout == 0
            assert option.big_bang is False
        if option.state not in SLOTTED_STATES:
            assert option.slot == 0
            assert option.agreed == 0 and option.failed == 0
        else:
            assert 1 <= option.slot <= CONFIG.slots
        assert 0 <= option.agreed <= CONFIG.counter_cap
        assert 0 <= option.failed <= CONFIG.counter_cap


#: Every channel content the strategies above can draw, and every pair.
ALL_CONTENTS = [ChannelContent(kind=KIND_NONE, frame_id=0),
                ChannelContent(kind=KIND_BAD_FRAME, frame_id=0)] + [
    ChannelContent(kind=kind, frame_id=frame_id)
    for kind in (KIND_C_STATE, KIND_COLD_START) for frame_id in range(1, 5)]
ALL_PAIRS = [(first, second) for first in ALL_CONTENTS for second in ALL_CONTENTS]


@given(locals_(), st.integers(min_value=1, max_value=4),
       st.sampled_from([CONFIG, ModelConfig(big_bang_enabled=False),
                        ModelConfig(full_host_choices=True)]))
def test_equal_observations_give_equal_steps(local, node_id, config):
    """The observation is all a step reads: channel pairs the node observes
    alike step alike, and alike the relation read straight off the
    channels."""
    step_of = {}
    for pair in ALL_PAIRS:
        observation = node_observation(config, node_id, local, pair)
        expected = reference_node_step(config, node_id, local, pair)
        assert node_step(config, node_id, local, pair) == expected
        assert step_of.setdefault(observation, expected) == expected


@given(locals_(), channels(), st.integers(min_value=1, max_value=4))
def test_node_step_deterministic(local, channel_pair, node_id):
    first = node_step(CONFIG, node_id, local, channel_pair)
    second = node_step(CONFIG, node_id, local, channel_pair)
    assert first == second


@given(locals_(), channels(), st.integers(min_value=1, max_value=4))
def test_clique_freeze_only_from_integrated_states(local, channel_pair, node_id):
    """The property's target state is reachable only from active/passive --
    the formal argument that our invariant equals the paper's transition
    property."""
    for option in node_step(CONFIG, node_id, local, channel_pair):
        if option.state == ST_FREEZE_CLIQUE and local.state != ST_FREEZE_CLIQUE:
            assert local.state in (ST_ACTIVE, ST_PASSIVE)


def test_pack_unpack_roundtrip_on_reachable_states():
    """The composed state survives pack/unpack across a BFS prefix."""
    system = TTAStartupModel(scenario_for_authority(CouplerAuthority.FULL_SHIFTING))
    frontier = list(system.initial_states())
    seen = set(frontier)
    for _ in range(4):  # a few BFS levels
        next_frontier = []
        for state in frontier:
            locals_list, buffers, oos = system._unpack(state)
            assert system._pack(locals_list, buffers, oos) == state
            for transition in system.successors(state):
                if transition.target not in seen:
                    seen.add(transition.target)
                    next_frontier.append(transition.target)
        frontier = next_frontier[:50]
