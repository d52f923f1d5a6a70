"""The node relation split into an observation and a step on it.

``node_step`` is ``node_step_observed`` applied to ``node_observation``,
and the packed model memoizes steps per ``(node, local, observation)``.
These tests pin that split against the relation read straight off the
channels (:mod:`tests.model.reference_node_step`) on every cell the
paper's checks reach, and pin how few steps a cold check evaluates.
"""

import pytest

import repro.model.node_model as node_model
import repro.model.system_model as system_model
from repro.core.authority import CouplerAuthority
from repro.model.node_model import node_observation, node_step, node_step_observed
from repro.model.properties import no_clique_freeze
from repro.model.scenarios import scenario_for_authority
from repro.model.system_model import TTAStartupModel
from repro.modelcheck.checker import InvariantChecker
from tests.model.reference_node_step import reference_node_step


def _reached_cells(config):
    """Every ``(node_index, local_code, pair_key)`` cell a fresh check of
    ``config`` fills, with the model that filled them."""
    system = TTAStartupModel(config)
    cells = set()
    option_codes = system.node_option_codes

    def recording(node_index, local_code, pair_key):
        cells.add((node_index, local_code, pair_key))
        return option_codes(node_index, local_code, pair_key)

    system.node_option_codes = recording
    InvariantChecker(system).check(no_clique_freeze(config))
    return system, cells


@pytest.mark.parametrize("slots", [3, 4])
@pytest.mark.parametrize("authority", list(CouplerAuthority),
                         ids=lambda authority: authority.value)
def test_split_step_matches_the_channel_relation_on_reached_cells(authority,
                                                                   slots):
    config = scenario_for_authority(authority, slots=slots)
    system, cells = _reached_cells(config)
    assert len(cells) > 100
    for node_index, local_code, pair_key in sorted(cells):
        node_id = node_index + 1
        local = system._decode_local(local_code)
        channels = system._cache_pair_list[pair_key]
        observation = node_observation(config, node_id, local, channels)
        expected = reference_node_step(config, node_id, local, channels)
        assert node_step(config, node_id, local, channels) == expected
        assert node_step_observed(config, node_id, local, observation) == expected
        assert system.node_option_codes(node_index, local_code, pair_key) == \
            tuple(system._encode_local(option) for option in expected)


def test_cold_passive_check_evaluates_few_node_steps(monkeypatch):
    """A cold slots=4 check fills about 1,500 (pair, node, local) cells,
    but they hold only 324 distinct observations: each is stepped once."""
    calls = []
    step_observed = node_model.node_step_observed

    def counting(*args):
        calls.append(args)
        return step_observed(*args)

    monkeypatch.setattr(node_model, "node_step_observed", counting)
    monkeypatch.setattr(system_model, "node_step_observed", counting)
    config = scenario_for_authority(CouplerAuthority.PASSIVE, slots=4)
    result = InvariantChecker(TTAStartupModel(config)).check(
        no_clique_freeze(config))
    assert result.holds and result.states_explored == 14772
    assert 0 < len(calls) <= 400
