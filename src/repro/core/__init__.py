"""The core library: the paper's architecture, executable.

- :mod:`repro.core.system` — ``IIoTSystem``, the three-tier
  architecture of Fig. 1 (sensing/actuation, application logic, data
  storage) assembled over a simulated deployment;
- :mod:`repro.core.scenario` — ``Scenario``, a run as one frozen value,
  and :mod:`repro.core.workloads` — the workload drivers it names;
- :mod:`repro.core.metrics` — cross-layer measurement: means and
  energy summaries;
- :mod:`repro.core.experiment` — seeded parameter sweeps, and
  :mod:`repro.core.analysis` — confidence intervals over them;
- :mod:`repro.core.report` — the ASCII tables the benchmarks print;
- :mod:`repro.core.taxonomy` — the paper's evaluation axes
  (interoperability, scalability, dependability) as first-class
  assessments over measured data.
"""
