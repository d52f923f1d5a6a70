"""Sampling-based decentralized monitors (per-node observation).

A central monitor watches one global event bus -- a single point of
observation that the paper's own decentralization argument warns against.
The verdicts do not need one: :class:`repro.obs.monitors.VerdictMonitor`
folds each node's locally observable events (``node:X`` sources) into a
per-node summary and derives the global Section 5.1, victim and startup
verdicts from those summaries alone, with order-independent arithmetic
(set membership, ``min`` over grid phases, ``max`` over first
activations).  Partitioning the stream by node is therefore exact, and
the central monitor is simply the full-rate case of the per-node one.

Sampling (after Bartocci's sampling-based decentralized monitoring): below
rate 1.0 every node keeps only a Bernoulli(``sampling_rate``) subsample of
its local events, drawn from a per-node seeded stream.  Sub-unit rates
trade verdict fidelity (missed freezes, late activation detection) for
observation bandwidth -- the tradeoff EXP-P9
(``benchmarks/bench_decentralized.py``) quantifies.

:class:`DecentralizedMonitorNetwork` is that monitor plus its export
surface: sampling totals and one typed verdict event per node.
"""

from __future__ import annotations

from typing import Dict, List

from repro.obs.events import DecentralizedVerdict, Event
from repro.obs.monitors import VerdictMonitor


class DecentralizedMonitorNetwork(VerdictMonitor):
    """Per-node verdict monitors with a sampling filter and an export.

    Folds exactly what :class:`VerdictMonitor` folds; it adds the time of
    the last event seen (the timestamp of the exported verdicts) and the
    two export methods.
    """

    #: Time of the last event seen, the timestamp of the exported verdicts.
    _last_time = 0.0

    def on_event(self, event: Event) -> None:
        if event.time > self._last_time:
            self._last_time = event.time
        super().on_event(event)

    def sampling_stats(self) -> Dict[str, int]:
        """Sampled/skipped per-node event totals across all nodes."""
        return {"sampled": self.sampled_events,
                "skipped": self.skipped_events}

    def verdict_events(self) -> List[DecentralizedVerdict]:
        """One typed verdict event per node, for JSONL export.

        ``verdict`` is ``faulty`` for attacker nodes, ``victim`` for harmed
        healthy nodes, and ``healthy`` otherwise; ``detail`` carries the
        node's last observed protocol state.  These events are constructed
        for export streams only -- never emitted on a cluster's main bus.
        """
        harmed = set(self.victims())
        events: List[DecentralizedVerdict] = []
        for name in self.node_names:
            if name not in self.healthy_nodes:
                verdict = "faulty"
            elif name in harmed:
                verdict = "victim"
            else:
                verdict = "healthy"
            events.append(DecentralizedVerdict(
                time=self._last_time, source=f"node:{name}",
                node=name, verdict=verdict,
                detail=self._state.get(name) or "never_started",
                sampling_rate=self.sampling_rate))
        return events
