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

from repro.core.authority import AuthorityFeatures, CouplerAuthority
from repro.core.buffer_analysis import (
    BufferConstraints,
    clock_ratio_limit,
    max_delta_rho,
    max_frame_bits,
    maximum_buffer_bits,
    minimum_buffer_bits,
)
from repro.core.tradeoffs import DesignPoint, evaluate_design, explore_design_space

#: Names resolved on first access (PEP 562), so importing ``repro.core``
#: -- as every simulator module does, through ``repro.core.authority`` --
#: does not load the model checker.
_LAZY_EXPORTS = ("VerificationResult", "verify_all_authorities",
                 "verify_authority")

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
    if name not in _LAZY_EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from repro.core import verification

    return getattr(verification, name)
