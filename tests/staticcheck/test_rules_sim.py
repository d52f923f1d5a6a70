"""SIM pack: the engine-bypass rule."""

from collections import Counter
from pathlib import Path

from repro.staticcheck.framework import ModuleUnit, run_ast_rules
from repro.staticcheck.rules_sim import NoEngineBypassRule


def _counts(rules, unit):
    return Counter(f.rule for f in run_ast_rules(rules, [unit]))


class TestEngineBypass:
    def test_bypass_fixture_is_fully_flagged(self, load_unit):
        unit = load_unit("ttp/slot_loop.py")
        findings = run_ast_rules([NoEngineBypassRule()], [unit])
        assert _counts([NoEngineBypassRule()], unit)["SIM003"] == 5
        messages = "\n".join(f.message for f in findings)
        assert "'heapq'" in messages
        assert "'time'" in messages
        assert "inside a loop" in messages

    def test_rearm_in_a_loop_is_flagged(self, load_unit):
        unit = load_unit("ttp/rearm_loop.py")
        findings = run_ast_rules([NoEngineBypassRule()], [unit])
        assert [(f.rule, f.line) for f in findings] == [("SIM003", 20)]
        assert "self.sim.rearm() inside a loop" in findings[0].message

    def test_rule_is_scoped_to_protocol_and_network_dirs(self):
        unit = ModuleUnit(
            Path("/x/sim/engine.py"), "sim/engine.py",
            "import heapq\n"
            "import time\n")
        rule = NoEngineBypassRule()
        assert not rule.applies_to(unit)

    def test_single_rearmed_event_is_clean(self):
        unit = ModuleUnit(
            Path("/x/network/channel.py"), "network/channel.py",
            "class Scheduler:\n"
            "    def arm(self, end_time):\n"
            "        self.wake = self.sim.schedule(end_time - self.sim.now,\n"
            "                                      self.drain)\n")
        assert run_ast_rules([NoEngineBypassRule()], [unit]) == []

    def test_non_simulator_schedule_in_loop_is_out_of_scope(self):
        unit = ModuleUnit(
            Path("/x/ttp/modes.py"), "ttp/modes.py",
            "def resolve(modes, requests):\n"
            "    for request in requests:\n"
            "        schedule = modes.schedule(request)\n"
            "    return schedule\n")
        assert run_ast_rules([NoEngineBypassRule()], [unit]) == []

    def test_relative_time_import_is_out_of_scope(self):
        unit = ModuleUnit(
            Path("/x/ttp/clock.py"), "ttp/clock.py",
            "from .time import SlotClock\n")
        assert run_ast_rules([NoEngineBypassRule()], [unit]) == []
