"""TTP/C protocol substrate.

Implements the parts of the Time-Triggered Protocol (TTP/C) that the paper
relies on:

* :mod:`repro.ttp.constants` -- frame sizes and protocol parameters from the
  TTP/C specification values quoted in the paper,
* :mod:`repro.ttp.frames` -- N/I/X/cold-start frame types with their wire
  sizes and the receiver's validity check,
* :mod:`repro.ttp.cstate` -- the controller state (C-state) carried
  explicitly or implicitly in frames,
* :mod:`repro.ttp.medl` -- the Message Descriptor List (static TDMA
  schedule),
* :mod:`repro.ttp.clique` -- the clique-avoidance test,
* :mod:`repro.ttp.membership` -- group membership bookkeeping,
* :mod:`repro.ttp.clock_sync` -- fault-tolerant-average clock
  synchronization,
* :mod:`repro.ttp.startup` -- listen-timeout and big-bang cold-start rules,
* :mod:`repro.ttp.controller` -- the 9-state protocol controller driven by
  the discrete-event simulator,
* :mod:`repro.ttp.acknowledgment` -- sender self-check via successor
  membership vectors,
* :mod:`repro.ttp.cni` -- the Communication Network Interface (host
  boundary),
* :mod:`repro.ttp.modes` -- operating modes and deferred mode changes.

Frames travel as objects and the slot judge compares C-states directly;
the bit-level codec (CRC-24, encoding, decoding, the implicit C-state of
N-frames) is kept with the tests as the oracle for that comparison.
"""

import importlib

#: Submodule of each public name.  Names resolve on first access
#: (PEP 562), so importing :mod:`repro.ttp.constants` -- as the buffer
#: analysis and the model checker do -- does not load the controller
#: and, with it, the simulator.
_EXPORTS = {name: module for module, names in (
    ("acknowledgment", ("AckOutcome", "AcknowledgmentState")),
    ("clique", ("CliqueCounters", "CliqueVerdict", "clique_avoidance_test")),
    ("cni", ("CniMessage", "CommunicationNetworkInterface")),
    ("constants", (
        "COLD_START_FRAME_BITS", "CRC_BITS", "I_FRAME_BITS",
        "LINE_ENCODING_BITS", "N_FRAME_BITS", "X_FRAME_BITS",
        "ControllerStateName", "FrameKind",
    )),
    ("controller", (
        "ControllerConfig", "FreezeReason", "NodeFaultBehavior",
        "TTPController",
    )),
    ("cstate", ("CState",)),
    ("frames", (
        "ColdStartFrame", "Frame", "FrameObservation", "IFrame", "NFrame",
        "XFrame",
    )),
    ("medl", ("Medl", "SlotDescriptor")),
    ("membership", ("MembershipView",)),
    ("modes", ("ModeSet", "validate_mode_compatible")),
    ("startup", ("StartupRules", "listen_timeout_slots")),
) for name in names}

__all__ = [
    "COLD_START_FRAME_BITS",
    "CRC_BITS",
    "CState",
    "CliqueCounters",
    "CliqueVerdict",
    "ColdStartFrame",
    "ControllerStateName",
    "Frame",
    "FrameKind",
    "FrameObservation",
    "IFrame",
    "I_FRAME_BITS",
    "LINE_ENCODING_BITS",
    "Medl",
    "MembershipView",
    "NFrame",
    "N_FRAME_BITS",
    "SlotDescriptor",
    "StartupRules",
    "XFrame",
    "X_FRAME_BITS",
    "AckOutcome",
    "AcknowledgmentState",
    "CniMessage",
    "CommunicationNetworkInterface",
    "ControllerConfig",
    "FreezeReason",
    "ModeSet",
    "NodeFaultBehavior",
    "TTPController",
    "clique_avoidance_test",
    "listen_timeout_slots",
    "validate_mode_compatible",
]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
