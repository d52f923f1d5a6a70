"""EVT pack: taxonomy closure rules fire on seeded fixtures and track
the real event vocabulary."""

from collections import Counter
from pathlib import Path

from repro.obs import events
from repro.staticcheck.framework import ModuleUnit, run_ast_rules
from repro.staticcheck.rules_evt import (
    EmitSiteRule,
    MonitorKindRule,
    taxonomy,
)


def _counts(rules, unit):
    return Counter(f.rule for f in run_ast_rules(rules, [unit]))


class TestTaxonomyLoading:
    def test_taxonomy_tracks_the_live_registry(self):
        class_fields, kind_to_class = taxonomy()
        assert set(kind_to_class) == set(events.EVENT_TYPES)
        assert kind_to_class["state"] == "StateChange"
        assert class_fields["StateChange"] == frozenset({"state"})

    def test_time_and_source_are_not_detail_fields(self):
        class_fields, _ = taxonomy()
        for fields in class_fields.values():
            assert "time" not in fields
            assert "source" not in fields


class TestEmitSites:
    def test_bad_emit_sites_are_flagged(self, load_unit):
        unit = load_unit("evt_unclean.py")
        assert _counts([EmitSiteRule()], unit)["EVT001"] == 4

    def test_well_typed_emit_is_clean(self):
        unit = ModuleUnit(
            Path("/x/ttp/controller.py"), "ttp/controller.py",
            "self._emit(StateChange, state='active')\n")
        assert run_ast_rules([EmitSiteRule()], [unit]) == []


class TestMonitorKinds:
    def test_undeclared_kind_consumption_is_flagged(self, load_unit):
        unit = load_unit("bad_monitors.py")
        assert _counts([MonitorKindRule()], unit)["EVT003"] == 4

    def test_rule_scopes_to_monitor_modules(self, load_unit):
        source = load_unit("bad_monitors.py").source
        unit = ModuleUnit(Path("/x/analysis/report.py"), "analysis/report.py",
                          source)
        assert run_ast_rules([MonitorKindRule()], [unit]) == []
