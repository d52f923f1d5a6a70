"""Forward dataflow solver: lattice, transfer plumbing, fixpoints."""

import ast

from repro.staticcheck.cfg import build_cfg
from repro.staticcheck.dataflow import (
    BOTTOM,
    AbstractValue,
    assignment_keys,
    environments_before,
    join_environments,
    reference_key,
    solve_forward,
)


class TestAbstractValue:
    def test_join_is_union(self):
        a = AbstractValue(frozenset({"x"}))
        b = AbstractValue(frozenset({"y"}))
        assert a.join(b).tags == {"x", "y"}
        assert a.join(BOTTOM) is a

    def test_join_environments_is_pointwise(self):
        left = {"a": AbstractValue(frozenset({"x"}))}
        right = {"a": AbstractValue(frozenset({"y"})),
                 "b": AbstractValue(frozenset({"z"}))}
        merged = join_environments(left, right)
        assert merged["a"].tags == {"x", "y"}
        assert merged["b"].tags == {"z"}


class TestReferenceKeys:
    def test_names_and_self_attributes(self):
        assert reference_key(ast.parse("x").body[0].value) == "x"
        assert reference_key(ast.parse("self.x").body[0].value) == "self.x"
        assert reference_key(ast.parse("obj.x").body[0].value) is None

    def test_assignment_keys_flatten_tuples(self):
        stmt = ast.parse("a, (b, self.c) = f()").body[0]
        assert assignment_keys(stmt) == ["a", "b", "self.c"]

    def test_subscript_store_binds_nothing(self):
        # `CACHE[key] = v` mutates CACHE; it must NOT look like a local
        # binding of CACHE (an element store keeps an array's WID dtype tag).
        stmt = ast.parse("CACHE[key] = v").body[0]
        assert assignment_keys(stmt) == []


def _solve(source, transfer):
    function = ast.parse(source).body[0]
    cfg = build_cfg(function)
    return function, cfg, environments_before(cfg, transfer)


def _tag_assignments(env, stmt):
    """Toy transfer: x = tagged() tags x; y = x propagates."""
    if isinstance(stmt, ast.Assign):
        value = BOTTOM
        if isinstance(stmt.value, ast.Call):
            value = AbstractValue(frozenset({"tagged"}))
        else:
            key = reference_key(stmt.value)
            if key is not None:
                value = env.get(key, BOTTOM)
        for key in assignment_keys(stmt):
            env[key] = value
    return env


class TestFixpoint:
    def test_branch_join_unions_tags(self):
        source = ("def f(c):\n"
                  "    if c:\n"
                  "        x = tagged()\n"
                  "    else:\n"
                  "        x = c\n"
                  "    y = x\n"
                  "    return y\n")
        function, cfg, before = _solve(source, _tag_assignments)
        return_stmt = function.body[-1]
        env = before[id(return_stmt)]
        assert env["y"].has("tagged")  # may-analysis: tagged on SOME path

    def test_loop_reaches_fixpoint(self):
        source = ("def f(xs):\n"
                  "    x = xs\n"
                  "    for _ in xs:\n"
                  "        y = x\n"
                  "        x = tagged()\n"
                  "    return x\n")
        function, cfg, before = _solve(source, _tag_assignments)
        loop_body_first = function.body[1].body[0]  # y = x
        env = before[id(loop_body_first)]
        # Second iteration sees the tag assigned at the end of the first.
        assert env["x"].has("tagged")

    def test_entry_environment_is_initial(self):
        source = "def f(x):\n    return x\n"
        function = ast.parse(source).body[0]
        cfg = build_cfg(function)
        initial = {"x": AbstractValue(frozenset({"seed"}))}
        entry = solve_forward(cfg, _tag_assignments, initial)
        assert entry[cfg.entry.index]["x"].has("seed")
