"""The paper's primary contribution as a public API.

Three pieces:

* :mod:`repro.core.authority` -- the four star-coupler authority levels of
  Section 4.1 and the capabilities each implies,
* :mod:`repro.core.verification` -- build the Section 4 formal model for a
  chosen authority level and model-check the paper's correctness property,
  returning a verdict and (on failure) a shortest counterexample trace,
* :mod:`repro.core.buffer_analysis` -- the engineering tradeoff of
  Section 6: minimum/maximum guardian buffer sizes and the induced mutual
  constraints between frame sizes and clock rates (paper eqs. 1-10,
  Figure 3).
* :mod:`repro.core.tradeoffs` -- design-space exploration combining both.
"""

import importlib

#: Submodule of each public name, resolved on first access (PEP 562), so
#: importing ``repro.core`` -- as every simulator module does, through
#: ``repro.core.authority`` -- loads neither the model checker nor the
#: buffer analysis.
_EXPORTS = {name: module for module, names in (
    ("authority", ("AuthorityFeatures", "CouplerAuthority")),
    ("buffer_analysis", ("BufferConstraints", "clock_ratio_limit",
                         "max_delta_rho", "max_frame_bits",
                         "maximum_buffer_bits", "minimum_buffer_bits")),
    ("tradeoffs", ("DesignPoint", "evaluate_design", "explore_design_space")),
    ("verification", ("VerificationResult", "verify_all_authorities",
                      "verify_authority")),
) for name in names}

__all__ = [
    "AuthorityFeatures",
    "BufferConstraints",
    "CouplerAuthority",
    "DesignPoint",
    "VerificationResult",
    "clock_ratio_limit",
    "evaluate_design",
    "explore_design_space",
    "max_delta_rho",
    "max_frame_bits",
    "maximum_buffer_bits",
    "minimum_buffer_bits",
    "verify_all_authorities",
    "verify_authority",
]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
