"""Actuator command semantics: clamping, slew, delay."""

import pytest

from repro.devices import actuators
from repro.devices.actuators import Actuator
from repro.sim.kernel import Simulator


class TestActuator:
    def test_instant_actuation_without_limits(self, sim):
        actuator = Actuator(sim, "valve")
        actuator.command(0.7)
        assert actuator.output == pytest.approx(0.7)

    def test_targets_clamped_to_range(self, sim):
        actuator = Actuator(sim, "valve")
        actuator.command(2.5)
        assert actuator.output == 1.0
        actuator.command(-1.0)
        assert actuator.output == 0.0

    def test_slew_rate_limits_speed(self, sim, monkeypatch):
        monkeypatch.setattr(actuators, "SLEW_PER_S", 0.1)
        actuator = Actuator(sim, "damper")
        actuator.command(1.0)
        sim.run(until=5.0)
        assert actuator.output == pytest.approx(0.5)
        sim.run(until=20.0)
        assert actuator.output == pytest.approx(1.0)

    def test_actuation_delay_defers_motion(self, sim, monkeypatch):
        monkeypatch.setattr(actuators, "ACTUATION_DELAY_S", 2.0)
        actuator = Actuator(sim, "relay")
        actuator.command(1.0)
        sim.run(until=1.0)
        assert actuator.output == 0.0
        sim.run(until=3.0)
        assert actuator.output == 1.0

    def test_command_history_recorded(self, sim):
        actuator = Actuator(sim, "valve")
        actuator.command(0.3, issuer=7)
        actuator.command(0.6, issuer=7)
        assert len(actuator.commands) == 2
        assert actuator.commands[0].issuer == 7
        assert actuator.commands_applied == 2

    def test_retarget_mid_slew(self, sim, monkeypatch):
        monkeypatch.setattr(actuators, "SLEW_PER_S", 0.1)
        actuator = Actuator(sim, "damper")
        actuator.command(1.0)
        sim.run(until=3.0)  # output 0.3
        actuator.command(0.0)
        sim.run(until=4.0)
        assert actuator.output == pytest.approx(0.2)
