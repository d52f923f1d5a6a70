"""Discrete-event simulation substrate.

This subpackage is a self-contained discrete-event simulation (DES) kernel
used by the TTP/C protocol simulation and the fault-injection experiments.
It plays the role SimPy would play in the paper's setting (no external
dependency is used), with one scheduling primitive: timed callbacks on a
single heap, no generator processes.  TTP/C is time-triggered, so every
protocol action already happens at a time the MEDL fixes.

* :mod:`repro.sim.engine` -- the event queue and simulation clock,
* :mod:`repro.sim.clock` -- per-component drifting clocks (ppm offsets),
* :mod:`repro.sim.rng` -- deterministic seeded random streams,
* :mod:`repro.sim.monitor` -- structured event tracing.

The public names below are the stable API; everything else is internal.
"""

import importlib

#: Submodule of each public name, resolved on first access (PEP 562), so
#: a simulator module importing :mod:`repro.sim.engine` loads only what it
#: uses.
_EXPORTS = {name: module for module, names in (
    ("clock", ("ClockConfig", "DriftingClock", "ppm_to_rate",
               "relative_rate_difference")),
    ("engine", ("Event", "SimulationError", "Simulator")),
    ("monitor", ("TraceMonitor", "TraceRecord")),
    ("rng", ("RandomStream",)),
) for name in names}

__all__ = [
    "ClockConfig",
    "DriftingClock",
    "Event",
    "RandomStream",
    "SimulationError",
    "Simulator",
    "TraceMonitor",
    "TraceRecord",
    "ppm_to_rate",
    "relative_rate_difference",
]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
