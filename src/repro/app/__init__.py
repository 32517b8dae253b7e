"""The application tier: what runs a system and reports on it.

Everything here builds a :mod:`repro.core` system, so nothing below
imports it (DESIGN.md, "Layers"):

- :mod:`repro.app.scenarios` — the built-in fault scenarios, each a
  ``Scenario`` wired with checkers, shared by the integration tests and
  ``python -m repro sweep``;
- :mod:`repro.app.sweep` — the ``SeedSweepRunner`` that runs a scenario
  across many seeds, asserts zero violations and emits a minimal repro
  bundle on failure, and ``replay``, which re-runs one fully observed;
- :mod:`repro.app.dependability` — ``python -m repro dependability``,
  the fault-plan scenarios graded on the availability axis;
- :mod:`repro.app.report` — the instrumented demo behind
  ``python -m repro report`` (the dashboard) and ``python -m repro
  explain`` (latency attribution).
"""
