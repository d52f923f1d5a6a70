"""CON pack: unpicklable work across the pool boundary."""

from pathlib import Path

import pytest

from repro.staticcheck.context import AnalysisContext
from repro.staticcheck.framework import (
    ModuleUnit,
    run_ast_rules,
    select_rules,
)


@pytest.fixture
def findings(load_unit):
    units = [load_unit("con_unclean.py"), load_unit("con_clean.py")]
    context = AnalysisContext(units)
    return run_ast_rules(select_rules(["CON"]), units, context)


def _hits(findings, rule):
    return sorted((f.path, f.line) for f in findings if f.rule == rule)


def test_con002_flags_unpicklable_payloads(findings):
    # Line 49 is runner.map(lambda ...) on a TaskRunner: the one
    # submission shape src uses.
    assert _hits(findings, "CON002") == [("con_unclean.py", 29),
                                         ("con_unclean.py", 35),
                                         ("con_unclean.py", 39),
                                         ("con_unclean.py", 44),
                                         ("con_unclean.py", 49)]


def test_clean_fixture_is_silent(findings):
    assert not [f for f in findings if f.path == "con_clean.py"]


def test_submission_in_a_nested_function_is_reported_once():
    """A nested body belongs to the nested function alone: its submission
    is one finding, not a second one at the enclosing function."""
    unit = ModuleUnit(
        Path("/x/nested.py"), "nested.py",
        "def outer(pool, tasks):\n"
        "    def inner():\n"
        "        return pool.submit(lambda: tasks)\n"
        "    return inner\n")
    findings = run_ast_rules(select_rules(["CON"]), [unit],
                             AnalysisContext([unit]))
    assert _hits(findings, "CON002") == [("nested.py", 3)]
