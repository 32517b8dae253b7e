"""Actuator command semantics: clamping and history."""

import pytest

from repro.devices.actuators import Actuator


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

    def test_output_starts_at_the_minimum(self, sim):
        assert Actuator(sim, "valve").output == 0.0

    def test_output_is_the_last_clamped_setpoint(self, sim):
        actuator = Actuator(sim, "valve")
        for target in (0.2, 1.7, 0.9, 0.5):
            actuator.command(target)
        assert actuator.output == 0.5

    def test_output_holds_between_commands(self, sim):
        actuator = Actuator(sim, "damper")
        actuator.command(0.4)
        sim.run(until=3600.0)
        assert actuator.output == 0.4

    def test_a_command_schedules_nothing(self, sim):
        # The output is set in command() itself: no deferred motion is
        # left on the kernel for a run to execute.
        actuator = Actuator(sim, "relay")
        actuator.command(0.6)
        sim.run()
        assert sim.now == 0.0
        assert sim.events_processed == 0
        assert actuator.output == 0.6

    def test_command_history_recorded(self, sim):
        actuator = Actuator(sim, "valve")
        actuator.command(0.3, issuer=7)
        actuator.command(0.6, issuer=7)
        assert len(actuator.commands) == 2
        assert actuator.commands[0].issuer == 7
        assert actuator.commands_applied == 2
