"""Deterministic discrete-event simulation kernel.

This package provides the substrate on which every other layer of the
reproduction runs: a priority-queue event scheduler (:class:`Simulator`),
cancellable timers (:class:`Timer`), and a structured trace facility
(:class:`repro.sim.trace.TraceLog`).

All simulated components must obtain time and randomness exclusively
from the kernel so that a run is a pure function of its seed.
"""

from repro.sim.kernel import EventHandle, SimTimeError, Simulator
from repro.sim.timers import PeriodicTimer, Timer
from repro.sim.trace import TraceLog, TraceRecord

__all__ = [
    "EventHandle",
    "PeriodicTimer",
    "SimTimeError",
    "Simulator",
    "Timer",
    "TraceLog",
    "TraceRecord",
]
