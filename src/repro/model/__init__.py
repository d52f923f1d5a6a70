"""The paper's Section 4 formal model of TTP/C startup with star couplers.

A synchronous, slot-granularity model: one transition corresponds to one
TDMA slot.  Nodes follow the paper's Section 4.3 constraints (freeze, init,
listen with big-bang and timeout, cold start with clique test, active,
passive); the two star couplers follow Section 4.4 (fault modes none /
silence / bad_frame / out_of_slot, with out_of_slot possible only at the
full-shifting authority level).

* :mod:`repro.model.config` -- model configuration (authority level, fault
  budgets, trace-2 style constraints),
* :mod:`repro.model.node_model` -- per-node transition constraints,
* :mod:`repro.model.coupler_model` -- channel contents, buffer bookkeeping,
  and fault-choice enumeration,
* :mod:`repro.model.system_model` -- the synchronous composition as a
  :class:`repro.modelcheck.TransitionSystem`,
* :mod:`repro.model.properties` -- the checked correctness property,
* :mod:`repro.model.scenarios` -- ready-made configurations for each
  experiment (EXP-V1, EXP-T1, EXP-T2).
"""

import importlib

#: Submodule of each public name, resolved on first access (PEP 562), so
#: importing :mod:`repro.model.scenarios` -- as the conformance replays
#: do -- does not load the transition system and the model checker.
_EXPORTS = {name: module for module, names in (
    ("config", ("ModelConfig",)),
    ("properties", ("no_clique_freeze", "property_description")),
    ("scenarios", ("scenario_for_authority", "trace1_scenario",
                   "trace2_scenario")),
    ("system_model", ("TTAStartupModel",)),
) for name in names}

__all__ = [
    "ModelConfig",
    "TTAStartupModel",
    "no_clique_freeze",
    "property_description",
    "scenario_for_authority",
    "trace1_scenario",
    "trace2_scenario",
]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
