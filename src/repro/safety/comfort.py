"""Comfort bands, occupancy schedules, and violation accounting.

Soft safety margins as the paper frames them: the band can vary with
who occupies the space and when, and violating it is a *cost*, not a
crash — tracked in degree-hours so the revenue model can price it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.sim.kernel import Simulator
from repro.sim.timers import PeriodicTimer

#: How often a tracker samples its zone, in sim seconds.
SAMPLE_PERIOD_S = 60.0


@dataclass(frozen=True)
class ComfortBand:
    """An acceptable temperature interval."""

    lower_c: float
    upper_c: float

    def __post_init__(self) -> None:
        if self.lower_c > self.upper_c:
            raise ValueError("lower_c must not exceed upper_c")

    def violation_degrees(self, temperature_c: float) -> float:
        """Distance outside the band (0 when inside)."""
        if temperature_c < self.lower_c:
            return self.lower_c - temperature_c
        if temperature_c > self.upper_c:
            return temperature_c - self.upper_c
        return 0.0

    def widened(self, margin_c: float) -> "ComfortBand":
        """A softer band (the energy-saving knob of experiment E8)."""
        return ComfortBand(self.lower_c - margin_c, self.upper_c + margin_c)


class OccupancySchedule:
    """Daily occupancy: a list of (start_hour, end_hour, headcount)."""

    def __init__(
        self, periods: Optional[List[Tuple[float, float, int]]] = None
    ) -> None:
        # Default: office hours, 8 people 8:00-18:00.
        self.periods = periods if periods is not None else [(8.0, 18.0, 8)]

    def occupants(self, time_s: float) -> int:
        """Headcount at simulated ``time_s`` (day wraps at 24 h)."""
        hour = (time_s / 3600.0) % 24.0
        total = 0
        for start, end, count in self.periods:
            if start <= hour < end:
                total += count
        return total

    def occupied(self, time_s: float) -> bool:
        return self.occupants(time_s) > 0


class ComfortTracker:
    """Samples a zone's temperature and integrates violations.

    Violations only accrue while the space is occupied — empty rooms
    have no comfort requirement, which is what makes occupancy-aware
    setback profitable.
    """

    def __init__(
        self,
        sim: Simulator,
        temperature: "callable",
        band: ComfortBand,
        schedule: Optional[OccupancySchedule] = None,
    ) -> None:
        self.sim = sim
        self.temperature = temperature
        self.band = band
        self.schedule = schedule if schedule is not None else OccupancySchedule()
        self.violation_degree_hours = 0.0
        self.occupied_hours = 0.0
        self.samples = 0
        self.worst_violation_c = 0.0
        self._timer = PeriodicTimer(sim, SAMPLE_PERIOD_S, self._sample,
                                    phase=0.0)

    def start(self) -> None:
        self._timer.start()

    def _sample(self) -> None:
        self.samples += 1
        if not self.schedule.occupied(self.sim.now):
            return
        hours = SAMPLE_PERIOD_S / 3600.0
        self.occupied_hours += hours
        violation = self.band.violation_degrees(self.temperature())
        self.violation_degree_hours += violation * hours
        self.worst_violation_c = max(self.worst_violation_c, violation)
