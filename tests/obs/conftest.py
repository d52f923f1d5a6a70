"""Post-hoc oracles for the online verdicts.

Each oracle answers a verdict question from a *retained* trace (or from
final controller state), independently of the per-node fold in
:class:`repro.obs.monitors.VerdictMonitor` -- the ground truth the online
monitor must reproduce without retaining anything.
"""

import pytest

from repro.obs.monitors import PropertyViolation
from repro.ttp.constants import ControllerStateName
from repro.ttp.controller import PROTOCOL_FORCED_FREEZES, NodeFaultBehavior


def _whole_trace(cluster):
    assert cluster.monitor.dropped_count == 0, "oracle needs the whole trace"
    return cluster.monitor


@pytest.fixture
def post_hoc_all_active_time():
    """The latest first activation among the per-node ``state`` records,
    or None unless every controller ends active."""
    def query(cluster):
        first_active = {}
        for record in _whole_trace(cluster).select(kind="state"):
            if record.details["state"] == "active":
                node = record.source.split(":", 1)[1]
                first_active.setdefault(node, record.time)
        if any(state is not ControllerStateName.ACTIVE
               for state in cluster.states().values()):
            return None
        assert set(first_active) == set(cluster.controllers)
        return max(first_active.values())
    return query


@pytest.fixture
def post_hoc_violations():
    """Protocol-forced ``freeze`` records of fault-free nodes, in
    (time, node) order."""
    def query(cluster):
        forced = {reason.value for reason in PROTOCOL_FORCED_FREEZES}
        healthy = {name for name, controller in cluster.controllers.items()
                   if controller.config.fault is NodeFaultBehavior.HEALTHY}
        found = []
        for record in _whole_trace(cluster).select(kind="freeze"):
            node = record.source.split(":", 1)[1]
            reason = record.details["reason"]
            if node in healthy and reason in forced:
                found.append(PropertyViolation(time=record.time, node=node,
                                               reason=reason))
        return sorted(found, key=lambda entry: (entry.time, entry.node))
    return query



@pytest.fixture
def assert_matches_post_hoc(post_hoc_all_active_time, post_hoc_violations):
    """Every verdict of a full-rate monitor equals its post-hoc oracle."""
    def check(monitor, cluster):
        assert monitor.skipped_events == 0
        assert monitor.victims() == cluster.healthy_victims()
        expected_time = post_hoc_all_active_time(cluster)
        assert monitor.completed == (expected_time is not None)
        assert monitor.all_active_time() == expected_time
        assert monitor.violations == post_hoc_violations(cluster)
        assert monitor.holds == (not monitor.violations)
    return check
