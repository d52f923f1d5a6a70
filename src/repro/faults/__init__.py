"""Fault models and injection campaigns.

* :mod:`repro.faults.types` -- the taxonomy of faults used across the
  repository (node, guardian, coupler, channel),
* :mod:`repro.faults.injector` -- applies a fault description to a
  :class:`repro.cluster.ClusterSpec`,
* :mod:`repro.faults.campaign` -- runs injection campaigns over both
  topologies and tabulates containment vs. propagation (EXP-S2).
"""

import importlib

#: Submodule of each public name, resolved on first access (PEP 562):
#: the generated-cluster sweep applies faults through
#: :mod:`repro.faults.injector` and never loads the campaign.
_EXPORTS = {name: module for module, names in (
    ("campaign", ("CampaignResult", "InjectionOutcome", "run_campaign")),
    ("injector", ("apply_fault",)),
    ("types", ("FaultDescriptor", "FaultSite", "FaultType")),
) for name in names}

__all__ = [
    "CampaignResult",
    "FaultDescriptor",
    "FaultSite",
    "FaultType",
    "InjectionOutcome",
    "apply_fault",
    "run_campaign",
]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
