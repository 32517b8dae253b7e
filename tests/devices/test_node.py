"""DeviceNode assembly."""

import pytest

from repro.devices.node import DeviceNode
from repro.devices.actuators import Actuator
from repro.devices.platform import CLASS_2_GATEWAY
from repro.radio.medium import Medium
from repro.radio.propagation import UnitDiskModel
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceLog
from tests.conftest import constant_field


@pytest.fixture
def medium(sim):
    return Medium(sim, UnitDiskModel(), TraceLog())


class TestDeviceNode:
    def test_sensor_attachment_and_read(self, sim, medium):
        node = DeviceNode(medium, 1, (0, 0))
        node.add_sensor("temp", constant_field(19.0))
        node.start()
        assert node.read("temp") == pytest.approx(19.0, abs=0.5)

    def test_duplicate_sensor_rejected(self, sim, medium):
        node = DeviceNode(medium, 1, (0, 0))
        node.add_sensor("temp", constant_field(19.0))
        with pytest.raises(ValueError):
            node.add_sensor("temp", constant_field(20.0))

    def test_actuator_attachment(self, sim, medium):
        node = DeviceNode(medium, 1, (0, 0))
        node.add_actuator(Actuator(sim, "valve"))
        with pytest.raises(ValueError):
            node.add_actuator(Actuator(sim, "valve"))
        assert "valve" in node.actuators

    def test_fail_and_recover(self, sim, medium):
        node = DeviceNode(medium, 1, (0, 0))
        node.start()
        node.fail()
        assert not node.alive
        node.recover()
        assert node.alive

    def test_root_uses_gateway_platform(self, sim, medium):
        node = DeviceNode(medium, 0, (0, 0),
                          platform=CLASS_2_GATEWAY, is_root=True)
        assert node.platform.mains_powered
        assert node.is_root

    def test_energy_meter_bound_to_radio(self, sim, medium):
        node = DeviceNode(medium, 1, (0, 0))
        node.start()
        sim.run(until=60.0)
        assert node.energy.charge_consumed_mas() >= 0.0
