"""Sensors: noisy, drifting, occasionally faulty observers of phenomena.

A sensor is *placed*: its position is fixed by the phenomenon it must
observe (the paper's §IV-A point that software placement is not free at
this layer).  Fault modes — stuck-at, offset drift, dead — feed the
maintainability experiment's automated-diagnosis half (§V-D).
"""

from __future__ import annotations

import enum
from typing import Optional, Tuple

from repro.devices.phenomena import Phenomenon
from repro.sim.kernel import LazyStream, Simulator


class SensorFault(enum.Enum):
    """Injectable sensor fault modes."""

    NONE = "none"
    STUCK = "stuck"          # repeats the last good value forever
    OFFSET = "offset"        # systematic bias (miscalibration)
    DRIFT = "drift"          # bias growing since fault onset
    DEAD = "dead"            # returns None


# Measurement characteristics, read at run time (a test patches them).
#: Standard deviation of the Gaussian read noise, value units.
NOISE_SIGMA = 0.1
#: Reading resolution, value units (0 = unquantized).
QUANTIZATION = 0.01
#: Slow calibration drift in value units per day.
DRIFT_PER_DAY = 0.0
#: Bias of an injected OFFSET fault, value units.
OFFSET_FAULT_BIAS = 5.0
#: Bias growth under an injected DRIFT fault, value units per hour.
FAULT_DRIFT_PER_HOUR = 2.0


class Sensor(LazyStream):
    """One measurement channel on a device."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        phenomenon: Phenomenon,
        position: Tuple[float, float],
    ) -> None:
        self.sim = sim
        self.name = name
        self.phenomenon = phenomenon
        self.position = position
        self.fault = SensorFault.NONE
        self.readings_taken = 0
        self._last_good: Optional[float] = None
        self._fault_since: Optional[float] = None
        self._stream = f"sensor.{name}.{position}"

    def inject_fault(self, fault: SensorFault) -> None:
        """Switch the sensor into a fault mode (diagnosis experiments)."""
        self.fault = fault
        self._fault_since = self.sim.now if fault is not SensorFault.NONE else None

    def clear_fault(self) -> None:
        self.fault = SensorFault.NONE
        self._fault_since = None

    def read(self) -> Optional[float]:
        """Take one measurement now; None if the sensor is dead."""
        self.readings_taken += 1
        if self.fault is SensorFault.DEAD:
            return None
        if self.fault is SensorFault.STUCK:
            return self._last_good
        truth = self.phenomenon.value_at(self.sim.now, self.position)
        value = truth + self._draws().gauss(0.0, NOISE_SIGMA)
        value += DRIFT_PER_DAY * (self.sim.now / 86_400.0)
        if self.fault is SensorFault.OFFSET:
            value += OFFSET_FAULT_BIAS
        if self.fault is SensorFault.DRIFT and self._fault_since is not None:
            hours = (self.sim.now - self._fault_since) / 3600.0
            value += FAULT_DRIFT_PER_HOUR * hours
        if QUANTIZATION > 0:
            steps = round(value / QUANTIZATION)
            value = steps * QUANTIZATION
        self._last_good = value
        return value
