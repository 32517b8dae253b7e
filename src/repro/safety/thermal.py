"""Lumped-RC thermal model of a building zone.

One thermal mass per zone: ``C dT/dt = (T_out − T)/R + Q``.  This is the
standard first-order substitute for a real plant (DESIGN.md substitution
table); it exhibits exactly the lag/overshoot dynamics that make the
comfort-vs-energy tradeoff non-trivial.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from repro.sim.kernel import Simulator
from repro.sim.timers import PeriodicTimer


# Zone physics, read at run time (a test patches them).
#: Thermal resistance to outside, K/W.
RESISTANCE_K_PER_W = 0.02
#: Thermal capacitance, J/K (~a small office).
CAPACITANCE_J_PER_K = 2.0e6
#: Heater maximum power, W.
HEATER_MAX_W = 3000.0
#: Cooling maximum power (extracted), W.
COOLER_MAX_W = 3000.0
#: Integration step, s.
STEP_S = 60.0
#: Internal gains per occupant, W.
OCCUPANT_GAIN_W = 100.0


class ThermalZone:
    """One zone's integrating thermal state.

    ``heat_fraction`` / ``cool_fraction`` in [0, 1] are set by the HVAC
    actuators; ``outside`` and ``occupants`` are callables sampled each
    step, so the zone composes with phenomena and occupancy schedules.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        outside: Callable[[float], float],
        occupants: Optional[Callable[[float], int]] = None,
        initial_temp_c: float = 18.0,
    ) -> None:
        self.sim = sim
        self.name = name
        self.outside = outside
        self.occupants = occupants if occupants is not None else (lambda t: 0)
        self.temperature_c = initial_temp_c
        self.heat_fraction = 0.0
        self.cool_fraction = 0.0
        self.energy_used_j = 0.0
        self._stepper = PeriodicTimer(sim, STEP_S, self._step, phase=0.0)

    def start(self) -> None:
        """Begin integrating the zone physics."""
        self._stepper.start()

    def _step(self) -> None:
        now = self.sim.now
        t_out = self.outside(now)
        q_hvac = self.heat_fraction * HEATER_MAX_W - self.cool_fraction * COOLER_MAX_W
        q_internal = self.occupants(now) * OCCUPANT_GAIN_W
        # Exact solution of the linear ODE over one step (stable for any
        # step size, unlike forward Euler).
        tau = RESISTANCE_K_PER_W * CAPACITANCE_J_PER_K
        q_total = q_hvac + q_internal
        equilibrium = t_out + q_total * RESISTANCE_K_PER_W
        decay = math.exp(-STEP_S / tau)
        self.temperature_c = equilibrium + (self.temperature_c - equilibrium) * decay
        self.energy_used_j += (
            abs(self.heat_fraction) * HEATER_MAX_W
            + abs(self.cool_fraction) * COOLER_MAX_W
        ) * STEP_S

    @property
    def energy_used_kwh(self) -> float:
        return self.energy_used_j / 3.6e6
