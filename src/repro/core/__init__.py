"""The core library: the paper's architecture, executable.

- :mod:`repro.core.system` — :class:`IIoTSystem`, the three-tier
  architecture of Fig. 1 (sensing/actuation, application logic, data
  storage) assembled over a simulated deployment;
- :mod:`repro.core.metrics` — cross-layer measurement: delivery,
  latency, duty cycle, energy, convergence;
- :mod:`repro.core.experiment` — seeded parameter sweeps;
- :mod:`repro.core.report` — the ASCII tables the benchmarks print;
- :mod:`repro.core.taxonomy` — the paper's evaluation axes
  (interoperability, scalability, dependability) as first-class
  assessments over measured data.
"""

from repro.core.analysis import IntervalEstimate, confidence_interval
from repro.core.experiment import Sweep, Trial, seeds_for
from repro.core.metrics import EnergySummary, collect_energy, percentile
from repro.core.report import ascii_table, format_value, write_csv
from repro.core.system import IIoTSystem, SystemConfig
from repro.core.taxonomy import (
    AxisAssessment,
    DependabilityReport,
    ScalabilityReport,
    assess_dependability,
    assess_scalability,
)

__all__ = [
    "AxisAssessment",
    "DependabilityReport",
    "EnergySummary",
    "IIoTSystem",
    "IntervalEstimate",
    "confidence_interval",
    "ScalabilityReport",
    "Sweep",
    "SystemConfig",
    "Trial",
    "ascii_table",
    "assess_dependability",
    "assess_scalability",
    "collect_energy",
    "format_value",
    "percentile",
    "seeds_for",
    "write_csv",
]
