"""Framework mechanics: suppressions, generator detection, rule selection."""

import ast
from pathlib import Path

import pytest

from repro.staticcheck.findings import Finding, sort_findings
from repro.staticcheck.framework import (
    ModuleUnit,
    all_rules,
    dotted_name,
    is_generator_function,
    is_suppressed,
    parse_suppressions,
    run_ast_rules,
    select_rules,
    terminal_name,
)


def _unit(source: str, rel_path: str = "pkg/mod.py") -> ModuleUnit:
    return ModuleUnit(Path("/x/" + rel_path), rel_path, source)


class TestSuppressions:
    def test_bracketed_form_lists_rules(self):
        table = parse_suppressions("x = 1  # repro: ignore[DET001,EVT002]\n")
        assert table == {1: {"DET001", "EVT002"}}

    def test_bare_form_suppresses_everything(self):
        table = parse_suppressions("a = 1\nb = 2  # repro: ignore\n")
        assert table == {2: {"*"}}

    def test_unrelated_comments_are_not_suppressions(self):
        assert parse_suppressions("x = 1  # ignore this\n") == {}

    def test_is_suppressed_matches_rule_and_line(self):
        table = {3: {"DET001"}}
        hit = Finding(rule="DET001", path="m.py", line=3, column=0, message="x")
        miss_rule = Finding(rule="DET002", path="m.py", line=3, column=0,
                            message="x")
        miss_line = Finding(rule="DET001", path="m.py", line=4, column=0,
                            message="x")
        assert is_suppressed(hit, table)
        assert not is_suppressed(miss_rule, table)
        assert not is_suppressed(miss_line, table)

    def test_suppressed_fixture_yields_no_findings(self, load_unit):
        unit = load_unit("suppressed.py")
        assert run_ast_rules(all_rules(), [unit]) == []

    def test_marker_inside_a_docstring_is_not_a_suppression(self):
        # Regression: a naive line scan would read the quoted marker as a
        # live suppression; the tokenizer knows it is a string.
        source = ('def f():\n'
                  '    """Write `# repro: ignore[DET001]` to suppress."""\n'
                  '    return 1\n')
        assert parse_suppressions(source) == {}

    def test_marker_inside_a_string_literal_is_not_a_suppression(self):
        source = 'text = "x = 1  # repro: ignore"\n'
        assert parse_suppressions(source) == {}

    def test_comment_after_multiline_statement_lands_on_its_line(self):
        source = ("value = [\n"
                  "    1,\n"
                  "]  # repro: ignore[EVT001]\n")
        assert parse_suppressions(source) == {3: {"EVT001"}}

    def test_suppressions_survive_unparseable_tail(self):
        # tokenize raises on some malformed sources even when earlier
        # lines carried markers; the parser must not propagate that.
        source = "x = 1  # repro: ignore\ny = (\n"
        table = parse_suppressions(source)
        assert table.get(1) == {"*"}


class TestGeneratorDetection:
    def _func(self, source: str) -> ast.FunctionDef:
        return ast.parse(source).body[0]

    def test_plain_function_is_not_a_generator(self):
        assert not is_generator_function(self._func("def f():\n    return 1\n"))

    def test_yield_makes_a_generator(self):
        assert is_generator_function(self._func("def f():\n    yield 1\n"))

    def test_yield_from_makes_a_generator(self):
        assert is_generator_function(
            self._func("def f():\n    yield from ()\n"))

    def test_nested_definition_yields_do_not_count(self):
        source = ("def f():\n"
                  "    def inner():\n"
                  "        yield 1\n"
                  "    return inner\n")
        assert not is_generator_function(self._func(source))


class TestNameHelpers:
    def test_dotted_name_resolves_attribute_chain(self):
        node = ast.parse("a.b.c()").body[0].value.func
        assert dotted_name(node) == "a.b.c"
        assert terminal_name(node) == "c"

    def test_dotted_name_rejects_dynamic_bases(self):
        node = ast.parse("f().g()").body[0].value.func
        assert dotted_name(node) is None
        assert terminal_name(node) == "g"


class TestRuleSelection:
    def test_default_selects_all_ast_rules(self):
        ids = {rule.rule for rule in select_rules(None)}
        assert ids == {"DET001", "DET002", "DET003", "DET004", "DET005",
                       "DET006", "EVT001", "EVT002", "EVT003", "SIM003",
                       "CON001", "CON002", "CON003", "CON004",
                       "WID001", "WID002", "WID003",
                       "ORD001", "ORD002"}

    def test_pack_prefix_selects_interprocedural_packs(self):
        assert {rule.rule for rule in select_rules(["CON"])} == {
            "CON001", "CON002", "CON003", "CON004"}
        assert {rule.rule for rule in select_rules(["WID"])} == {
            "WID001", "WID002", "WID003"}
        assert {rule.rule for rule in select_rules(["ORD"])} == {
            "ORD001", "ORD002"}

    def test_pack_prefix_selects_the_pack(self):
        ids = {rule.rule for rule in select_rules(["DET"])}
        assert ids == {"DET001", "DET002", "DET003", "DET004", "DET005",
                       "DET006"}

    def test_exact_id_selects_one_rule(self):
        ids = {rule.rule for rule in select_rules(["evt002"])}
        assert ids == {"EVT002"}


class TestFinding:
    def test_invalid_severity_is_rejected(self):
        with pytest.raises(ValueError):
            Finding(rule="X", path="p", line=1, column=0, message="m",
                    severity="fatal")

    def test_fingerprint_prefers_item_over_message(self):
        with_item = Finding(rule="R", path="p", line=1, column=0,
                            message="msg", item="stable")
        without = Finding(rule="R", path="p", line=9, column=4, message="msg")
        assert with_item.fingerprint == ("R", "p", "stable")
        assert without.fingerprint == ("R", "p", "msg")

    def test_dict_roundtrip(self):
        finding = Finding(rule="DET001", path="a.py", line=3, column=7,
                          message="m", severity="warning", item="i")
        assert Finding.from_dict(finding.to_dict()) == finding

    def test_sort_is_by_path_then_line_then_rule(self):
        findings = [
            Finding(rule="B", path="b.py", line=1, column=0, message="m"),
            Finding(rule="Z", path="a.py", line=9, column=0, message="m"),
            Finding(rule="A", path="a.py", line=1, column=0, message="m"),
        ]
        ordered = sort_findings(findings)
        assert [(f.path, f.line) for f in ordered] == [
            ("a.py", 1), ("a.py", 9), ("b.py", 1)]
