"""DET pack: every determinism rule fires on its seeded fixture."""

from collections import Counter
from pathlib import Path

from repro.staticcheck.framework import ModuleUnit, run_ast_rules
from repro.staticcheck.rules_det import (
    FloatEqualityRule,
    IdOrderingRule,
    NumpyDeterminismRule,
    RawRandomRule,
    SetIterationRule,
    WallClockRule,
)


def _counts(rules, unit):
    return Counter(f.rule for f in run_ast_rules(rules, [unit]))


class TestDetFixture:
    def test_wall_clock_reads_are_flagged(self, load_unit):
        unit = load_unit("sim/det_unclean.py")
        assert _counts([WallClockRule()], unit)["DET001"] == 2

    def test_raw_random_use_is_flagged(self, load_unit):
        unit = load_unit("sim/det_unclean.py")
        assert _counts([RawRandomRule()], unit)["DET002"] == 3

    def test_set_iteration_in_hot_path_is_flagged(self, load_unit):
        unit = load_unit("sim/det_unclean.py")
        assert _counts([SetIterationRule()], unit)["DET003"] == 2

    def test_id_ordering_is_flagged(self, load_unit):
        unit = load_unit("sim/det_unclean.py")
        assert _counts([IdOrderingRule()], unit)["DET004"] == 2

    def test_float_equality_in_clock_module_is_flagged(self, load_unit):
        unit = load_unit("ttp/clock_drift.py")
        assert _counts([FloatEqualityRule()], unit)["DET005"] == 2

    def test_numpy_nondeterminism_in_hot_path_is_flagged(self, load_unit):
        unit = load_unit("sim/det_unclean.py")
        findings = run_ast_rules([NumpyDeterminismRule()], [unit])
        assert [f.item.split("#")[0].strip() for f in findings] == [
            "noise = np.random.rand(len(codes))",
            'order = np.argsort(codes, kind="quicksort")',
            "_, first = np.unique(codes, return_index=True)"]

    def test_findings_carry_location_and_item(self, load_unit):
        unit = load_unit("sim/det_unclean.py")
        finding = run_ast_rules([WallClockRule()], [unit])[0]
        assert finding.path == "sim/det_unclean.py"
        assert finding.line > 0
        assert "time.time()" in finding.item


class TestDetScoping:
    def test_set_iteration_only_applies_to_hot_paths(self, load_unit):
        source = load_unit("sim/det_unclean.py").source
        elsewhere = ModuleUnit(Path("/x/analysis/det_unclean.py"),
                               "analysis/det_unclean.py", source)
        assert run_ast_rules([SetIterationRule()], [elsewhere]) == []

    def test_numpy_rule_only_applies_to_hot_paths(self, load_unit):
        source = load_unit("sim/det_unclean.py").source
        elsewhere = ModuleUnit(Path("/x/analysis/det_unclean.py"),
                               "analysis/det_unclean.py", source)
        assert run_ast_rules([NumpyDeterminismRule()], [elsewhere]) == []

    def test_float_equality_only_applies_to_clock_modules(self, load_unit):
        source = load_unit("ttp/clock_drift.py").source
        elsewhere = ModuleUnit(Path("/x/ttp/frames.py"), "ttp/frames.py",
                               source)
        assert run_ast_rules([FloatEqualityRule()], [elsewhere]) == []

    def test_rng_module_itself_may_import_random(self):
        unit = ModuleUnit(Path("/x/sim/rng.py"), "sim/rng.py",
                          "import random\n")
        assert run_ast_rules([RawRandomRule()], [unit]) == []

    def test_perf_counter_is_not_a_wall_clock_read(self):
        unit = ModuleUnit(Path("/x/sim/engine.py"), "sim/engine.py",
                          "import time\nelapsed = time.perf_counter()\n")
        assert run_ast_rules([WallClockRule()], [unit]) == []
