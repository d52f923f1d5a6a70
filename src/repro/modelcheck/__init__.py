"""Explicit-state model checking.

A small but complete explicit-state model checker that plays the role SMV
plays in the paper: it exhaustively explores the reachable state space of a
finite nondeterministic transition system, checks invariants, and -- like
SMV -- returns a *shortest* counterexample trace when a property fails
(breadth-first search visits states in distance order, so the first
violation found is at minimum depth).

* :mod:`repro.modelcheck.state` -- variable declarations and immutable
  state representation,
* :mod:`repro.modelcheck.model` -- the transition-system interface,
* :mod:`repro.modelcheck.encode` -- packed integer state encoding (the
  fast path of the checker's hot loop),
* :mod:`repro.modelcheck.checker` -- BFS reachability and invariant
  checking with counterexample extraction (tuple and packed engines),
* :mod:`repro.modelcheck.shard` -- frontier sharding inside one
  vectorized check,
* :mod:`repro.modelcheck.trace` -- counterexample rendering.
"""

import importlib

#: Submodule of each public name, resolved on first access (PEP 562), so
#: importing a leaf such as :mod:`repro.modelcheck.state` does not load
#: the BFS engines and the process pools.
_EXPORTS = {name: module for module, names in (
    ("checker", ("CheckResult", "DeadlockSearchResult", "InvariantChecker",
                 "check_invariant")),
    ("encode", ("PackedSystemAdapter", "StateCodec",
                "compile_packed_invariant")),
    ("model", ("Transition", "TransitionSystem")),
    ("state", ("StateSpace", "StateView", "Variable")),
    ("trace", ("Trace", "TraceStep", "render_trace")),
) for name in names}

__all__ = [
    "CheckResult",
    "DeadlockSearchResult",
    "InvariantChecker",
    "PackedSystemAdapter",
    "StateCodec",
    "StateSpace",
    "StateView",
    "Trace",
    "TraceStep",
    "Transition",
    "TransitionSystem",
    "Variable",
    "check_invariant",
    "compile_packed_invariant",
    "render_trace",
]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
