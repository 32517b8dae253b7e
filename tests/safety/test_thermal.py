"""Thermal zone physics."""

import pytest

from repro.safety import thermal
from repro.safety.thermal import ThermalZone
from repro.sim.kernel import Simulator


def make_zone(sim, outside=10.0, initial=20.0):
    zone = ThermalZone(sim, "z", lambda t: outside, initial_temp_c=initial)
    zone.start()
    return zone


class TestThermalZone:
    def test_unheated_zone_decays_to_outside(self, sim):
        zone = make_zone(sim, outside=5.0, initial=20.0)
        sim.run(until=48 * 3600.0)
        assert zone.temperature_c == pytest.approx(5.0, abs=0.2)

    def test_heating_raises_equilibrium(self, sim):
        zone = make_zone(sim, outside=5.0, initial=5.0)
        zone.heat_fraction = 1.0
        sim.run(until=48 * 3600.0)
        # Equilibrium = outside + Q*R = 5 + 3000*0.02 = 65.
        assert zone.temperature_c == pytest.approx(65.0, abs=1.0)

    def test_cooling_lowers_temperature(self, sim):
        zone = make_zone(sim, outside=30.0, initial=30.0)
        zone.cool_fraction = 0.5
        sim.run(until=48 * 3600.0)
        assert zone.temperature_c == pytest.approx(30.0 - 0.5 * 3000 * 0.02, abs=1.0)

    def test_occupants_add_heat(self, sim):
        zone = ThermalZone(sim, "z", lambda t: 10.0,
                           occupants=lambda t: 10, initial_temp_c=10.0)
        zone.start()
        sim.run(until=48 * 3600.0)
        # 10 occupants * 100 W * 0.02 K/W = +20 K.
        assert zone.temperature_c == pytest.approx(30.0, abs=1.0)

    def test_energy_accounting(self, sim):
        zone = make_zone(sim)
        zone.heat_fraction = 1.0
        sim.run(until=3600.0)
        assert zone.energy_used_kwh == pytest.approx(3.0, rel=0.05)

    def test_integration_is_stable_for_large_steps(self, sim, monkeypatch):
        monkeypatch.setattr(thermal, "STEP_S", 7200.0)
        zone = make_zone(sim, outside=0.0, initial=100.0)
        sim.run(until=96 * 3600.0)
        # Exact exponential solution cannot overshoot or oscillate.
        assert 0.0 <= zone.temperature_c <= 100.0
