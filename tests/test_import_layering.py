"""Import layering: each command loads only the layer it runs.

The simulator commands (sweep, campaign, the cluster, the task runner, the
CLI, the conformance replays) must not import the model checker or numpy,
and the checker must not import the simulator.  A sweep or a cluster also
loads no process pool and no buffer analysis.
Every check runs in a fresh interpreter, because this test process has
long since imported everything.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

CHECKER_LAYER = ("numpy", "repro.modelcheck.checker", "repro.model.system_model",
                 "repro.core.verification")
SIMULATOR_LAYER = ("repro.ttp.controller", "repro.network.channel",
                   "repro.sim.engine")
#: What a generated sweep or a single cluster never runs.
UNUSED_BY_A_SWEEP = ("concurrent.futures.process", "repro.core.buffer_analysis",
                     "repro.core.tradeoffs")
#: Packages whose public names resolve on first access (PEP 562).
LAZY_PACKAGES = ("repro.analysis", "repro.core", "repro.faults",
                 "repro.model", "repro.modelcheck", "repro.sim", "repro.ttp")


def fresh_interpreter(code: str):
    """Run ``code`` in a new interpreter and return what it prints as JSON."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    completed = subprocess.run([sys.executable, "-c", code], env=env,
                               capture_output=True, text=True, check=True)
    return json.loads(completed.stdout)


def loaded_after_import(module: str, watched) -> list:
    return fresh_interpreter(
        f"import importlib, json, sys\n"
        f"importlib.import_module({module!r})\n"
        f"print(json.dumps([name for name in {list(watched)!r} "
        f"if name in sys.modules]))\n")


@pytest.mark.parametrize("module", ["repro.gen.sweep", "repro.faults.campaign",
                                    "repro.cluster", "repro.exec", "repro.cli",
                                    "repro.conformance"])
def test_simulator_entry_points_do_not_load_the_checker(module):
    assert loaded_after_import(module, CHECKER_LAYER) == []


@pytest.mark.parametrize("module", ["repro.gen.sweep", "repro.cluster",
                                    "repro.cli"])
def test_sweep_and_cluster_load_only_what_they_run(module):
    assert loaded_after_import(module, UNUSED_BY_A_SWEEP) == []


def test_sweep_does_not_load_the_campaign():
    assert loaded_after_import("repro.gen.sweep",
                               ("repro.faults.campaign",)) == []


def test_events_command_cluster_does_not_load_the_checker():
    loaded = fresh_interpreter(
        "import json, sys\n"
        "from repro.cli import _events_cluster\n"
        "_events_cluster('trace1', None)\n"
        f"print(json.dumps([name for name in {list(CHECKER_LAYER)!r} "
        "if name in sys.modules]))\n")
    assert loaded == []


def test_pooled_campaign_does_not_load_the_checker():
    loaded = fresh_interpreter(
        "import json, sys\n"
        "from repro.faults.campaign import run_campaign\n"
        "run_campaign(rounds=4, jobs=2)\n"
        "print(json.dumps(sorted(name for name in sys.modules\n"
        "                        if name.startswith('repro.modelcheck'))))\n")
    assert loaded == []


def test_serial_task_runner_runs_without_a_pool():
    ran = fresh_interpreter(
        "import json, sys\n"
        "from repro.exec import TaskRunner\n"
        "runner = TaskRunner(max_workers=1)\n"
        "values = runner.map(abs, [-1, 2, -3])\n"
        "print(json.dumps([values, runner.pool_engaged,\n"
        "                  'concurrent.futures.process' in sys.modules]))\n")
    assert ran == [[1, 2, 3], False, False]


def test_checker_does_not_load_the_simulator():
    assert loaded_after_import("repro.core.verification", SIMULATOR_LAYER) == []


def test_lazy_exports_resolve():
    resolved = fresh_interpreter(
        "import importlib, json\n"
        "from repro.core import verify_authority\n"
        "from repro.ttp import TTPController\n"
        "unresolved = {}\n"
        f"for name in {list(LAZY_PACKAGES)!r}:\n"
        "    package = importlib.import_module(name)\n"
        "    unresolved[name] = [export for export in package.__all__\n"
        "                        if not hasattr(package, export)]\n"
        "print(json.dumps([verify_authority.__module__, TTPController.__module__,\n"
        "                  unresolved]))\n")
    assert resolved == ["repro.core.verification", "repro.ttp.controller",
                        {package: [] for package in LAZY_PACKAGES}]


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_unknown_attribute_raises_attribute_error(package):
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(importlib.import_module(package), "no_such_name")


@pytest.mark.parametrize("name", ["Process", "Signal", "Timeout", "Interrupt",
                                  "ProcessDied"])
def test_simulator_exports_no_generator_processes(name):
    with pytest.raises(AttributeError, match=name):
        getattr(importlib.import_module("repro.sim"), name)


def test_numpy_loads_on_first_vectorized_use():
    loaded = fresh_interpreter(
        "import json, sys\n"
        "from repro.modelcheck import encode\n"
        "before = 'numpy' in sys.modules\n"
        "available = encode.have_numpy()\n"
        "print(json.dumps([before, available, 'numpy' in sys.modules]))\n")
    before, available, after = loaded
    assert not before
    assert after == available
