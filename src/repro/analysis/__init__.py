"""Worked numeric analyses, sweeps, and report-table helpers.

* :mod:`repro.analysis.examples` -- the paper's worked examples
  (eqs. 5, 6, 8, 9 with the exact printed inputs),
* :mod:`repro.analysis.figure3` -- the Figure 3 data series,
* :mod:`repro.analysis.sweep` -- linear and geometric parameter ranges,
* :mod:`repro.analysis.tables` -- plain-text table rendering shared by the
  benchmarks and the CLI.
"""

import importlib

#: Submodule of each public name.  Names resolve on first access
#: (PEP 562), so the CLI's table helper does not load the buffer
#: analysis behind the worked examples and Figure 3.
_EXPORTS = {name: module for module, names in (
    ("examples", (
        "WorkedExample", "eq5_commodity_delta_rho", "eq6_max_frame",
        "eq8_minimal_protocol_delta_rho", "eq9_max_xframe_delta_rho",
        "worked_examples",
    )),
    ("figure3", ("Figure3Point", "figure3_reference_points",
                 "figure3_series")),
    ("tables", ("format_table",)),
) for name in names}

__all__ = [
    "Figure3Point",
    "WorkedExample",
    "eq5_commodity_delta_rho",
    "eq6_max_frame",
    "eq8_minimal_protocol_delta_rho",
    "eq9_max_xframe_delta_rho",
    "figure3_reference_points",
    "figure3_series",
    "format_table",
    "worked_examples",
]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
