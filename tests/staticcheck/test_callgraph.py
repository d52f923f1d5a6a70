"""Call-graph construction and resolution forms."""

import ast
from pathlib import Path

import pytest

from repro.staticcheck.callgraph import CallGraph, module_name
from repro.staticcheck.framework import ModuleUnit


def _unit(rel_path, source):
    return ModuleUnit(Path("/x") / rel_path, rel_path, source)


UTIL = _unit(
    "src/pkg/util.py",
    "def helper():\n"
    "    return 1\n"
    "\n"
    "def chain():\n"
    "    return helper()\n")

CORE = _unit(
    "src/pkg/core.py",
    "from pkg.util import helper\n"
    "import pkg.util as u\n"
    "\n"
    "class Engine:\n"
    "    def __init__(self):\n"
    "        self.ticks = 0\n"
    "\n"
    "    def run(self):\n"
    "        self.step()\n"
    "\n"
    "    def step(self):\n"
    "        helper()\n"
    "\n"
    "def outer():\n"
    "    def inner():\n"
    "        return u.chain()\n"
    "    engine = Engine()\n"
    "    engine.run()\n"
    "    return inner()\n"
    "\n"
    "def spelled_out():\n"
    "    return pkg.util.helper()\n")


@pytest.fixture(scope="module")
def graph():
    return CallGraph([UTIL, CORE])


class TestModuleName:
    def test_strips_src_and_extension(self):
        assert module_name("src/pkg/util.py") == "pkg.util"

    def test_collapses_init_to_package(self):
        assert module_name("src/pkg/__init__.py") == "pkg"

    def test_plain_relative_path(self):
        assert module_name("tools/run.py") == "tools.run"


class TestResolution:
    def _call(self, source):
        return ast.parse(source).body[0].value

    def test_bare_name_same_module(self, graph):
        call = self._call("helper()")
        assert graph.resolve_callable(UTIL, call.func) == "pkg.util:helper"

    def test_from_import(self, graph):
        call = self._call("helper()")
        assert graph.resolve_callable(CORE, call.func) == "pkg.util:helper"

    def test_import_alias_attribute(self, graph):
        call = self._call("u.chain()")
        assert graph.resolve_callable(CORE, call.func) == "pkg.util:chain"

    def test_fully_dotted_path(self, graph):
        call = self._call("pkg.util.helper()")
        assert graph.resolve_callable(CORE, call.func) == "pkg.util:helper"

    def test_class_construction_resolves_to_init(self, graph):
        call = self._call("Engine()")
        assert graph.resolve_callable(CORE, call.func) == \
            "pkg.core:Engine.__init__"

    def test_self_method_inside_class(self, graph):
        run = graph.functions["pkg.core:Engine.run"]
        call = run.node.body[0].value
        assert graph.resolve_callable(CORE, call.func, enclosing=run) == \
            "pkg.core:Engine.step"

    def test_nested_function_by_name(self, graph):
        assert "pkg.core:outer.inner" in graph.functions
        outer = graph.functions["pkg.core:outer"]
        call = self._call("inner()")
        assert graph.resolve_callable(CORE, call.func,
                                      enclosing=outer) == \
            "pkg.core:outer.inner"

    def test_unknown_callable_resolves_to_none(self, graph):
        call = self._call("np.zeros(4)")
        assert graph.resolve_callable(CORE, call.func) is None


class TestFunctions:
    def test_nested_definitions_are_marked_nested(self, graph):
        # CON002 flags a pool submission of a nested function by this mark.
        assert graph.functions["pkg.core:outer.inner"].nested
        assert not graph.functions["pkg.core:outer"].nested
        assert not graph.functions["pkg.core:Engine.run"].nested

    def test_key_of_maps_nodes_back(self, graph):
        info = graph.functions["pkg.util:helper"]
        assert graph.key_of(info.node) == "pkg.util:helper"
        assert graph.key_of(ast.parse("def q(): pass").body[0]) is None
