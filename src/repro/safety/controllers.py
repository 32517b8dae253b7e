"""HVAC control policies.

All controllers share one contract: given the measured temperature (and
the time), produce heat/cool fractions in [0, 1].  The policies span the
tradeoff E8 sweeps — from the rigid thermostat to the occupancy-aware
setback policy that "deliberately violates margins to minimize energy
consumption".
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Tuple

from repro.safety.comfort import ComfortBand, OccupancySchedule

# Controller constants, read at run time (a test patches them).
#: How far past a band edge a thermostat keeps heating or cooling.
HYSTERESIS_C = 0.5
#: How long before occupancy begins the setback policy returns to the
#: strict band, so the zone is back in it when people arrive.
WARMUP_LEAD_S = 3600.0


class Controller(abc.ABC):
    """A control policy: temperature → (heat_fraction, cool_fraction)."""

    @abc.abstractmethod
    def control(self, temperature_c: float, time_s: float) -> Tuple[float, float]:
        """Compute actuation for the current measurement."""


@dataclass
class BangBangController(Controller):
    """Thermostat with ``HYSTERESIS_C`` around the band edges."""

    band: ComfortBand

    def __post_init__(self) -> None:
        self._heating = False
        self._cooling = False

    def control(self, temperature_c: float, time_s: float) -> Tuple[float, float]:
        if temperature_c < self.band.lower_c:
            self._heating = True
        elif temperature_c > self.band.lower_c + HYSTERESIS_C:
            self._heating = False
        if temperature_c > self.band.upper_c:
            self._cooling = True
        elif temperature_c < self.band.upper_c - HYSTERESIS_C:
            self._cooling = False
        return (1.0 if self._heating else 0.0, 1.0 if self._cooling else 0.0)


@dataclass
class SetbackController(Controller):
    """Occupancy-aware setback: soft margins when nobody is there.

    Wraps an inner policy, switching between the strict band (occupied)
    and a widened band (empty), with a warm-up lead (``WARMUP_LEAD_S``)
    before occupancy begins so the zone re-enters the strict band in
    time.
    """

    band: ComfortBand
    schedule: OccupancySchedule
    setback_margin_c: float = 4.0

    def __post_init__(self) -> None:
        self._strict = BangBangController(self.band)
        self._relaxed = BangBangController(
            self.band.widened(self.setback_margin_c))

    def _strict_mode(self, time_s: float) -> bool:
        if self.schedule.occupied(time_s):
            return True
        # Look ahead: pre-heat/cool before people arrive.
        return self.schedule.occupied(time_s + WARMUP_LEAD_S)

    def control(self, temperature_c: float, time_s: float) -> Tuple[float, float]:
        policy = self._strict if self._strict_mode(time_s) else self._relaxed
        return policy.control(temperature_c, time_s)
