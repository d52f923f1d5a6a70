"""Per-layer metrics from the traced passes' op summaries.

Each metric names the layer it measures; ``*_s`` self times come from
the spans' self time, ``*.run_s``/``check_s``/``map_s``/set-up spans are
inclusive.  Counts repeat exactly across traced passes and are reported
from the first; times and rates are medians over the traced passes.  A
layer that does not run in a workload reports 0.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict
from typing import Any, Dict, List

def pass_summaries(op_summaries: List[Dict[str, Any]],
                   ops: List[Any]) -> List[Dict[str, Any]]:
    """Sum consecutive op summaries into one summary per traced pass.

    ``node_slots`` counts only ops whose engine ran in this process: the
    campaign's cells run in pool workers, which the tracer does not see.
    """
    ops_per_pass = len(ops)
    passes = []
    for first in range(0, len(op_summaries), ops_per_pass):
        self_s: Dict[str, float] = defaultdict(float)
        total_s: Dict[str, float] = defaultdict(float)
        counts: Counter = Counter()
        seconds = unattributed = 0.0
        node_slots = 0
        for summary in op_summaries[first:first + ops_per_pass]:
            if summary["counts"].get("sim.runs"):
                node_slots += ops[summary["op"]].node_slots
            for bucket, value in summary["self_s"].items():
                self_s[bucket] += value
            for bucket, value in summary["total_s"].items():
                total_s[bucket] += value
            counts.update(summary["counts"])
            seconds += summary["seconds"]
            unattributed += summary["unattributed_s"]
        passes.append({"self_s": self_s, "total_s": total_s,
                       "counts": dict(counts), "seconds": seconds,
                       "unattributed_s": unattributed, "node_slots": node_slots})
    return passes


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _one_pass(summary: Dict[str, Any]) -> Dict[str, float]:
    own = summary["self_s"]
    span = summary["total_s"]
    count = Counter(summary["counts"])
    return {
        "sim.events": count["sim.events"],
        "sim.pushes": count["sim.pushes"],
        "sim.run_s": span["sim.run"],
        "sim.self_s": own["sim.run"] + own["sim.push"],
        "sim.events_per_s": _ratio(count["sim.events"], span["sim.run"]),
        "ttp.ticks": count["ttp.ticks"],
        "ttp.tick_self_s": own["ttp.tick"],
        "ttp.receives": count["ttp.receives"],
        "ttp.receive_self_s": own["ttp.receive"],
        "ttp.ticks_per_node_slot": _ratio(count["ttp.ticks"],
                                          summary["node_slots"]),
        "network.sends": count["network.sends"],
        "network.send_self_s": own["network.send"],
        "network.transmits": count["network.transmits"],
        "network.channel_self_s": own["network.channel"],
        "network.deliveries_per_transmit": _ratio(count["ttp.receives"],
                                                  count["network.transmits"]),
        "network.coupler_uplinks": count["network.coupler_uplinks"],
        "network.coupler_self_s": own["network.coupler"],
        "network.coupler_forward_ratio": _ratio(
            count["network.coupler_forwarded"], count["network.coupler_uplinks"]),
        "network.guardian_transmits": count["network.guardian_transmits"],
        "network.guardian_self_s": own["network.guardian"],
        "network.guardian_pass_ratio": _ratio(
            count["network.guardian_forwarded"],
            count["network.guardian_transmits"]),
        "obs.emits": count["obs.emits"],
        "obs.emit_self_s": own["obs.emit"],
        "obs.listener_calls": count["obs.listener_calls"],
        "obs.listener_self_s": own["obs.listener"],
        "obs.sampled_ratio": _ratio(count["obs.sampled"],
                                    count["obs.sampled"] + count["obs.skipped"]),
        "modelcheck.check_s": span["modelcheck.check"],
        "modelcheck.states": count["modelcheck.states"],
        "modelcheck.transitions": count["modelcheck.transitions"],
        "modelcheck.dedup_ratio": _ratio(count["modelcheck.states"],
                                         count["modelcheck.transitions"]),
        "modelcheck.successor_calls": count["modelcheck.successor_calls"],
        "modelcheck.successor_s": own["modelcheck.successor"],
        "modelcheck.batch_calls": count["modelcheck.batch_calls"],
        "modelcheck.batch_s": own["modelcheck.batch"],
        "modelcheck.seen_s": own["modelcheck.seen"],
        "modelcheck.self_s": own["modelcheck.check"],
        "exec.map_s": span["exec.map"],
        "exec.tasks": count["exec.tasks"],
        "exec.pool_engaged": count["exec.pool_engaged"],
        "exec.retries": count["exec.retries"],
        "gen.materialize_s": span["gen.materialize"],
        "cluster.build_s": span["cluster.build"],
        "conformance.replay_s": span["conformance.replay"],
        "conformance.check_s": span["conformance.check"],
        "trace.op_s": summary["seconds"],
        "trace.unattributed_s": summary["unattributed_s"],
    }


def layer_metrics(passes: List[Dict[str, Any]],
                  overhead_ratio: float) -> Dict[str, float]:
    """Every per-layer metric: counts from the first traced pass (the
    caller checks they repeat), times and rates as medians over passes."""
    values = [_one_pass(summary) for summary in passes]
    metrics = {name: (value if isinstance(value, int)
                      else statistics.median(entry[name] for entry in values))
               for name, value in values[0].items()}
    metrics["trace.overhead_ratio"] = overhead_ratio
    return metrics
