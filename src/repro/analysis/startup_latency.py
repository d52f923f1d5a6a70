"""Startup latency study (EXP-S6, extension).

How long does TTP/C startup take, from first power-on to a fully active
cluster?  The structure of the protocol gives the shape of the answer:

* the first node to time out waits ``slots + node_id`` silent slots,
* its big-bang rule forces one *discarded* cold-start round before anyone
  integrates,
* integrated nodes acknowledge and activate within one more round.

So the latency is dominated by the listen timeout plus two rounds, almost
independent of the power-on stagger -- which this study measures over a
grid of staggers and topologies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.cluster import Cluster, ClusterSpec
from repro.obs.monitors import VerdictMonitor


@dataclass(frozen=True)
class StartupMeasurement:
    """One startup run."""

    topology: str
    stagger: float
    completed: bool
    #: Reference time at which the last node became active (None if never).
    all_active_time: Optional[float]
    #: Same, in TDMA rounds from t=0.
    all_active_rounds: Optional[float]


def measure_startup(topology: str = "star", stagger: float = 37.0,
                    max_rounds: float = 60.0,
                    spec: Optional[ClusterSpec] = None) -> StartupMeasurement:
    """Run one startup and report when the cluster became fully active."""
    spec = spec or ClusterSpec(topology=topology)
    cluster = Cluster(spec)
    # Online: the monitor tracks per-node first activations as the stream
    # is emitted; no post-hoc trace query (works on a bounded-buffer bus).
    startup = VerdictMonitor.for_cluster(cluster)
    cluster.power_on(stagger=stagger)
    cluster.run(rounds=max_rounds)

    finished = startup.all_active_time()
    if finished is None:
        return StartupMeasurement(topology=topology, stagger=stagger,
                                  completed=False, all_active_time=None,
                                  all_active_rounds=None)
    round_duration = cluster.medl.round_duration()
    return StartupMeasurement(topology=topology, stagger=stagger,
                              completed=True, all_active_time=finished,
                              all_active_rounds=finished / round_duration)


def startup_study(staggers: Optional[List[float]] = None,
                  topologies: Optional[List[str]] = None,
                  max_rounds: float = 60.0) -> List[StartupMeasurement]:
    """Sweep power-on staggers over both topologies."""
    staggers = staggers if staggers is not None else [0.0, 37.0, 150.0,
                                                      301.0, 450.0, 900.0]
    topologies = topologies if topologies is not None else ["bus", "star"]
    measurements = []
    for topology in topologies:
        for stagger in staggers:
            measurements.append(measure_startup(topology=topology,
                                                stagger=stagger,
                                                max_rounds=max_rounds))
    return measurements
