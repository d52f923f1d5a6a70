"""ORD pack: emit placement and event-kind consumption."""

from pathlib import Path

import pytest

from repro.staticcheck.context import AnalysisContext
from repro.staticcheck.framework import ModuleUnit, run_ast_rules, select_rules

UNIVERSE = ("ord_events.py", "ord_monitors.py", "ord_unclean.py",
            "ord_clean.py")


def _run(load_unit, names=UNIVERSE):
    units = [load_unit(name) for name in names]
    return run_ast_rules(select_rules(["ORD"]), units,
                         AnalysisContext(units))


@pytest.fixture
def findings(load_unit):
    return _run(load_unit)


def test_ord001_flags_mutation_not_postdominated_by_emit(findings):
    hits = [(f.path, f.line) for f in findings if f.rule == "ORD001"]
    assert hits == [("ord_unclean.py", 13)]


def test_ord002_flags_the_orphan_kind_once(findings):
    hits = [f for f in findings if f.rule == "ORD002"]
    assert [(f.path, f.line, f.item) for f in hits] == \
        [("ord_unclean.py", 24, "kind:orphan")]
    assert hits[0].severity == "warning"


def test_consumed_kinds_and_postdominating_emit_are_clean(findings):
    assert not [f for f in findings if f.path == "ord_clean.py"]


def test_ord002_mute_without_any_monitor(load_unit):
    # Single-file lint: no monitor unit in scope means the consumed set is
    # empty, and ORD002 must stay silent rather than flag every kind.
    findings = _run(load_unit, ("ord_events.py", "ord_unclean.py"))
    assert not [f for f in findings if f.rule == "ORD002"]


def test_ord002_module_local_class_shadows_the_taxonomy_name(load_unit):
    findings = _run(load_unit, ("ord_events.py", "ord_monitors.py",
                                "ord_shadow.py"))
    assert not [f for f in findings if f.rule == "ORD002"]


def test_ord002_still_flags_a_taxonomy_construction(load_unit):
    findings = _run(load_unit, ("ord_events.py", "ord_monitors.py",
                                "ord_base_event.py"))
    assert [(f.path, f.line, f.item) for f in findings
            if f.rule == "ORD002"] == [("ord_base_event.py", 8, "kind:event")]


def _orphan_findings(load_unit, consumer_source):
    consumer = ModuleUnit(Path("/x/replay.py"), "replay.py", consumer_source)
    units = [load_unit("ord_events.py"), load_unit("ord_unclean.py"),
             consumer]
    return [f.item for f in run_ast_rules(select_rules(["ORD002"]), units,
                                          AnalysisContext(units))]


def test_ord002_resolves_a_class_attribute_kind_set(load_unit):
    """A kind read only through ``self.<CONST>`` in a non-monitor module
    counts as consumed; dropping it from the set flags it again."""
    def consumer(kinds):
        return ("class Replay:\n"
                "    WATCHED = frozenset({" + kinds + "})\n"
                "\n"
                "    def on_event(self, event):\n"
                "        if event.kind in self.WATCHED:\n"
                "            return event\n")

    assert _orphan_findings(load_unit, consumer('"state", "orphan"')) == []
    assert _orphan_findings(load_unit, consumer('"state"')) == ["kind:orphan"]
