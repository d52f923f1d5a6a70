"""Tests of the benchmark itself.

Run from the repository root (about a minute)::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402  (benchmark modules live beside this file)
from perf_layers import pass_summaries  # noqa: E402
from perf_spans import Tracer  # noqa: E402
from perf_workloads import DEFAULT_SEED, WORKLOADS, digest  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def traced_pass(ops):
    tracer = Tracer()
    with tracer.installed():
        result = run.run_pass(ops, tracer)
    return tracer, result


def digests(ops, result):
    return [digest(op.stats(output)) for op, output in zip(ops, result.outputs)]


@pytest.fixture(scope="module")
def traced_twice():
    """Two traced passes per workload at the default seed, run once."""
    cache = {}

    def get(name):
        if name not in cache:
            ops = WORKLOADS[name].build_ops(DEFAULT_SEED)
            cache[name] = (ops, traced_pass(ops), traced_pass(ops))
        return cache[name]

    return get


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_layer_counts_repeat_exactly(traced_twice, name):
    ops, (first, _), (second, _) = traced_twice(name)
    counts = [pass_summaries(tracer.op_summaries, ops)[0]["counts"]
              for tracer in (first, second)]
    assert counts[0] == counts[1]
    for key in ("sim.events", "ttp.receives", "network.transmits", "obs.emits"):
        assert counts[0][key] > 0, key
    if name == "verify-conform":
        assert counts[0]["modelcheck.states"] > 0
        assert counts[0]["modelcheck.successor_calls"] > 0
        assert counts[0]["modelcheck.batch_calls"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_leaves_behaviour_unchanged(traced_twice, monkeypatch, name):
    """``sim.events`` and every op's simulated statistics agree between a
    traced pass and an untraced one (observed through ``Simulator.run``
    alone)."""
    from repro.sim.engine import Simulator

    ops, (tracer, traced), _ = traced_twice(name)
    original = Simulator.run
    fired = []

    def counting_run(sim, *args, **kwargs):
        before = sim.fired_count
        try:
            return original(sim, *args, **kwargs)
        finally:
            fired.append(sim.fired_count - before)

    monkeypatch.setattr(Simulator, "run", counting_run)
    untraced = run.run_pass(ops)
    monkeypatch.undo()
    traced_events = pass_summaries(tracer.op_summaries, ops)[0]["counts"]["sim.events"]
    assert traced_events == sum(fired)
    assert digests(ops, traced) == digests(ops, untraced)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_self_times_and_remainder_sum_to_op_time(traced_twice, name):
    ops, (tracer, _), _ = traced_twice(name)
    assert len(tracer.op_summaries) == len(ops)
    for summary in tracer.op_summaries:
        assert sum(summary["self_s"].values()) == pytest.approx(
            summary["seconds"], rel=1e-9, abs=1e-9)
        assert 0.0 <= summary["unattributed_s"] <= summary["seconds"]


def test_recorded_spans_nest_inside_their_op(traced_twice):
    _, (tracer, _), _ = traced_twice("faults-small-n")
    spans = {span["id"]: span for span in tracer.spans}
    assert {span["name"] for span in spans.values()} >= {
        "op", "sim.run", "exec.map", "cluster.build"}
    for span in spans.values():
        assert span["start"] <= span["end"]
        if span["name"] == "op":
            assert span["parent"] is None
            continue
        parent = spans[span["parent"]]
        assert parent["op"] == span["op"]
        assert parent["start"] <= span["start"] and span["end"] <= parent["end"]


def test_uninstall_restores_every_wrapped_attribute():
    from repro.network.topology import BusTopology
    from repro.sim.engine import Simulator

    before = (Simulator.run, Simulator.post, BusTopology.attach_receiver)
    tracer = Tracer()
    with tracer.installed():
        assert Simulator.run is not before[0]
        assert "attach_receiver" in vars(BusTopology)
    assert (Simulator.run, Simulator.post, BusTopology.attach_receiver) == before
    assert "attach_receiver" not in vars(BusTopology)


@pytest.mark.xfail(raises=OverflowError, strict=True,
                   reason="compile_batch_invariant converts a digit multiplier "
                          "past 2**63 to np.uint64 at slots=5, so the "
                          "verify-conform workload stays at slots=4")
def test_vectorized_matrix_at_five_slots():
    from repro.core.verification import expected_verdicts, verify_all_authorities

    results = verify_all_authorities(slots=5, engine="vectorized")
    assert {authority: result.property_holds
            for authority, result in results.items()} == expected_verdicts()


def run_benchmark(cwd, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "faults-small-n",
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=str(cwd), capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_last_line_carries_every_declared_metric(trace, section):
    completed = run_benchmark(ROOT, trace)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} \
        == declared
    if trace == 0:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = run_benchmark(tmp_path, 0)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
