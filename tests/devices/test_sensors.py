"""Sensors, phenomena, and fault modes."""

import pytest

from repro.devices import phenomena
from repro.devices.phenomena import DiurnalField, RandomWalkField
from repro.devices import sensors
from repro.devices.sensors import Sensor, SensorFault
from repro.sim.kernel import Simulator
from tests.conftest import constant_field


class TestPhenomena:
    def test_diurnal_cycle_period(self):
        field = DiurnalField(mean=10.0, amplitude=5.0, gradient_per_m=0.0)
        noon = field.value_at(86_400 / 4, (0, 0))
        midnight_next = field.value_at(86_400, (0, 0))
        assert noon == pytest.approx(15.0)
        assert midnight_next == pytest.approx(10.0, abs=1e-9)

    def test_diurnal_spatial_gradient(self):
        field = DiurnalField(gradient_per_m=0.1)
        east = field.value_at(0.0, (100, 0))
        west = field.value_at(0.0, (0, 0))
        assert east - west == pytest.approx(10.0)

    def test_random_walk_is_deterministic_and_cached(self):
        a = RandomWalkField(seed=4)
        b = RandomWalkField(seed=4)
        values_a = [a.value_at(t, (0, 0)) for t in (0, 100, 50, 100)]
        values_b = [b.value_at(t, (0, 0)) for t in (0, 100, 50, 100)]
        assert values_a == values_b
        assert values_a[1] == values_a[3]  # cache is consistent

    def test_random_walk_shape_is_read_when_used(self, monkeypatch):
        monkeypatch.setattr(phenomena, "WALK_START", 20.0)
        monkeypatch.setattr(phenomena, "WALK_STEP_S", 100.0)
        field = RandomWalkField(seed=4)
        assert field.value_at(99.0, (0, 0)) == 20.0   # still the first step
        assert field.value_at(100.0, (0, 0)) != 20.0


class TestSensor:
    @pytest.fixture(autouse=True)
    def exact(self, monkeypatch):
        """Noise-free, unquantized readings unless a test patches more."""
        monkeypatch.setattr(sensors, "NOISE_SIGMA", 0.0)
        monkeypatch.setattr(sensors, "QUANTIZATION", 0.0)

    def make(self, sim, value=20.0):
        return Sensor(sim, "temp", constant_field(value), (0, 0))

    def test_noiseless_read_matches_truth(self, sim):
        sensor = self.make(sim)
        assert sensor.read() == pytest.approx(20.0)

    def test_noise_spreads_readings(self, sim, monkeypatch):
        monkeypatch.setattr(sensors, "NOISE_SIGMA", 1.0)
        sensor = self.make(sim)
        readings = [sensor.read() for _ in range(50)]
        assert max(readings) != min(readings)
        mean = sum(readings) / len(readings)
        assert mean == pytest.approx(20.0, abs=1.0)

    def test_quantization(self, sim, monkeypatch):
        monkeypatch.setattr(sensors, "QUANTIZATION", 0.5)
        assert self.make(sim, 20.3).read() == pytest.approx(20.5)

    def test_stuck_fault_repeats_last_value(self, sim):
        sensor = self.make(sim)
        first = sensor.read()
        sensor.inject_fault(SensorFault.STUCK)
        assert sensor.read() == first
        assert sensor.read() == first

    def test_dead_fault_returns_none(self, sim):
        sensor = self.make(sim)
        sensor.inject_fault(SensorFault.DEAD)
        assert sensor.read() is None

    def test_offset_fault_biases(self, sim):
        sensor = self.make(sim)
        sensor.inject_fault(SensorFault.OFFSET)
        assert sensor.read() == pytest.approx(25.0)  # default bias 5.0

    def test_clear_fault_restores(self, sim):
        sensor = self.make(sim)
        sensor.inject_fault(SensorFault.DEAD)
        sensor.clear_fault()
        assert sensor.read() == pytest.approx(20.0)

    def test_drift_accumulates_with_time(self, sim, monkeypatch):
        monkeypatch.setattr(sensors, "DRIFT_PER_DAY", 2.0)
        sensor = self.make(sim)
        sim.run(until=86_400.0)
        assert sensor.read() == pytest.approx(22.0)
