"""MDL pack: transition-system hygiene over real and seeded models."""

import pytest

from repro.analysis.statespace import explore
from repro.core.authority import CouplerAuthority
from repro.model.config import ModelConfig
from repro.model.scenarios import scenario_for_authority
from repro.model.system_model import TTAStartupModel
from repro.staticcheck.rules_mdl import (
    ModelLintError,
    analyze_model,
    model_findings,
)


def _items(findings, rule):
    return {f.item for f in findings if f.rule == rule}


@pytest.fixture(scope="module")
def passive_findings():
    config = scenario_for_authority(CouplerAuthority.PASSIVE, slots=3)
    return model_findings(config, "passive")


@pytest.fixture(scope="module")
def no_big_bang_findings():
    """Seeded model defect: the big-bang rule is switched off entirely."""
    config = ModelConfig(authority=CouplerAuthority.FULL_SHIFTING, slots=2,
                         big_bang_enabled=False)
    return model_findings(config, "no_big_bang")


class TestRealModels:
    def test_paper_verdict_appears_as_unreachable_enum(self, passive_findings):
        # Section 5: below full-shifting authority the clique-freeze state
        # is unreachable -- MDL004 re-derives that verdict mechanically.
        items = _items(passive_findings, "MDL004")
        assert "a_state=freeze_clique" in items
        assert "b_state=freeze_clique" in items

    def test_failed_counters_never_move_below_full_shifting(
            self, passive_findings):
        assert _items(passive_findings, "MDL003") == {
            "var:a_failed", "var:b_failed", "var:c_failed"}

    def test_full_shifting_reaches_the_freeze_state(self):
        config = scenario_for_authority(CouplerAuthority.FULL_SHIFTING,
                                        slots=3)
        findings = model_findings(config, "full_shifting")
        assert "a_state=freeze_clique" not in _items(findings, "MDL004")


class TestSeededDefects:
    def test_disabled_big_bang_leaves_constant_variables(
            self, no_big_bang_findings):
        items = _items(no_big_bang_findings, "MDL003")
        assert "var:a_big_bang" in items
        assert "var:b_big_bang" in items

    def test_disabled_big_bang_makes_true_unreachable(
            self, no_big_bang_findings):
        assert "a_big_bang=True" in _items(no_big_bang_findings, "MDL004")


class TestAnalysis:
    def test_analysis_counts_the_exact_reachable_space(self):
        config = scenario_for_authority(CouplerAuthority.PASSIVE, slots=2)
        analysis = analyze_model(config, "tiny")
        system = TTAStartupModel(config)
        assert analysis.states == explore(system).states
        assert set(analysis.reachable_values) == {
            variable.name for variable in system.space.variables}

    def test_budget_overflow_raises_instead_of_guessing(self):
        config = scenario_for_authority(CouplerAuthority.PASSIVE, slots=3)
        with pytest.raises(ModelLintError):
            analyze_model(config, "tiny", max_states=10)

    def test_findings_use_the_synthetic_model_path(self, passive_findings):
        assert passive_findings
        assert all(f.path == "model:passive" for f in passive_findings)
        assert all(f.line == 0 for f in passive_findings)
