"""Deterministic discrete-event simulation kernel.

This package provides the substrate on which every other layer of the
reproduction runs: a priority-queue event scheduler
(:mod:`repro.sim.kernel`), cancellable and periodic timers
(:mod:`repro.sim.timers`), a structured trace facility
(:mod:`repro.sim.trace`), and the counter-based hash that stands in for
per-link random draws (:mod:`repro.sim.mix`).

All simulated components must obtain time and randomness exclusively
from the kernel so that a run is a pure function of its seed.
"""
