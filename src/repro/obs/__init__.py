"""Typed observability: the one event spine of the simulator.

Every layer of the discrete-event simulation -- protocol controllers,
star couplers, local guardians, channels, and the fault injector --
reports what it does as *typed events* (:mod:`repro.obs.events`) on a
shared bus (:class:`repro.sim.monitor.TraceMonitor`).  Online monitors
(:mod:`repro.obs.monitors`) subscribe to the live stream and evaluate
experiment verdicts incrementally, and the conformance subsystem
(:mod:`repro.conformance`) abstracts the same stream to the model
checker's slot-granularity state variables.
"""

from repro.obs.events import (
    EVENT_TYPES,
    Event,
    event_from_dict,
)

__all__ = [
    "EVENT_TYPES",
    "Event",
    "event_from_dict",
]
