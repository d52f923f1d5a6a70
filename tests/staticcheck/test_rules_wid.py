"""WID pack: packed-width overflow and dtype-mixing hazards."""

import pytest

from repro.staticcheck.context import AnalysisContext
from repro.staticcheck.framework import run_ast_rules, select_rules


def _run(units):
    return run_ast_rules(select_rules(["WID"]), units,
                         AnalysisContext(units))


def _hits(findings, rule):
    return sorted((f.path, f.line) for f in findings if f.rule == rule)


@pytest.fixture
def findings(load_unit):
    return _run([load_unit("wid_unclean.py")])


def test_wid001_flags_unguarded_geometry_growth(findings):
    assert ("wid_unclean.py", 8) in _hits(findings, "WID001")


def test_wid001_tracks_container_taint(findings):
    # pool.extend(option * scale ...) taints `pool`; the asarray sink fires.
    assert ("wid_unclean.py", 16) in _hits(findings, "WID001")


def test_wid003_flags_cross_dtype_comparison(findings):
    assert _hits(findings, "WID003") == [("wid_unclean.py", 22)]


def test_dominating_guard_suppresses_wid001(load_unit):
    findings = _run([load_unit("wid_clean.py")])
    assert findings == []
