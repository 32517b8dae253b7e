"""HVAC zones over networked devices, local and remote control."""

import pytest

from repro.devices.node import DeviceNode
from repro.net.stack import StackConfig
from repro.radio.medium import Medium
from repro.radio.propagation import UnitDiskModel
from repro.safety.comfort import ComfortBand, OccupancySchedule
from repro.safety.controllers import BangBangController
from repro.safety.hvac import HvacZone, RemoteControlLoop, RemoteHvacController
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceLog

BAND = ComfortBand(20.0, 23.0)
ALWAYS_OCCUPIED = OccupancySchedule([(0.0, 24.0, 2)])


def hvac_network(seed=90, n=4):
    sim = Simulator(seed=seed)
    trace = TraceLog()
    medium = Medium(sim, UnitDiskModel(radius_m=25.0), trace)
    config = StackConfig(mac="csma")
    nodes = [
        DeviceNode(medium, i, (i * 20.0, 0.0), config,
                   is_root=(i == 0))
        for i in range(n)
    ]
    for node in nodes:
        node.start()
    sim.run(until=120.0)
    return sim, trace, nodes


def cut(nodes):
    """Sever every link across x=30: nodes 0, 1 | nodes 2, 3."""
    nodes[0].stack.medium.set_link_filter(lambda a, b: (a < 2) != (b < 2))


class TestLocalControl:
    def test_zone_held_inside_band(self):
        sim, trace, nodes = hvac_network()
        zone = HvacZone(nodes[3], lambda t: 5.0, BAND,
                        schedule=ALWAYS_OCCUPIED, initial_temp_c=21.0)
        zone.start(BangBangController(BAND))
        sim.run(until=sim.now + 24 * 3600.0)
        assert BAND.lower_c - 1.0 <= zone.zone.temperature_c <= BAND.upper_c + 1.0
        assert zone.comfort.worst_violation_c < 1.5

    def test_cold_start_recovers(self):
        sim, trace, nodes = hvac_network()
        zone = HvacZone(nodes[3], lambda t: 0.0, BAND,
                        schedule=ALWAYS_OCCUPIED, initial_temp_c=5.0)
        zone.start(BangBangController(BAND))
        sim.run(until=sim.now + 24 * 3600.0)
        assert zone.zone.temperature_c > BAND.lower_c - 1.0

    def test_energy_consumed_tracked(self):
        sim, trace, nodes = hvac_network()
        zone = HvacZone(nodes[3], lambda t: 0.0, BAND,
                        schedule=ALWAYS_OCCUPIED, initial_temp_c=5.0)
        zone.start(BangBangController(BAND))
        sim.run(until=sim.now + 12 * 3600.0)
        assert zone.zone.energy_used_kwh > 0.0


class TestRemoteControl:
    def _remote_setup(self, seed=91, fallback_timeout=600.0):
        sim, trace, nodes = hvac_network(seed=seed)
        zone = HvacZone(nodes[3], lambda t: 5.0, BAND,
                        schedule=ALWAYS_OCCUPIED, initial_temp_c=21.0)
        controller = RemoteHvacController(nodes[0])
        controller.manage(zone.name, BangBangController(BAND))
        loop = RemoteControlLoop(zone, controller_node=0,
                                 fallback_timeout_s=fallback_timeout)
        zone.start()
        loop.start()
        return sim, trace, nodes, zone, controller, loop

    def test_commands_flow_over_network(self):
        sim, trace, nodes, zone, controller, loop = self._remote_setup()
        sim.run(until=sim.now + 4 * 3600.0)
        assert controller.reports_handled > 0
        assert loop.commands_received > 0
        assert not loop.in_fallback
        assert zone.comfort.worst_violation_c < 2.0

    def test_partition_triggers_fallback(self):
        sim, trace, nodes, zone, controller, loop = self._remote_setup()
        sim.run(until=sim.now + 3600.0)
        cut(nodes)
        sim.run(until=sim.now + 4 * 3600.0)
        assert loop.in_fallback
        assert loop.fallback_activations >= 1
        # The fallback policy still keeps the zone out of deep freeze.
        assert zone.zone.temperature_c > BAND.lower_c - 3.0

    def test_heal_exits_fallback(self):
        sim, trace, nodes, zone, controller, loop = self._remote_setup()
        sim.run(until=sim.now + 3600.0)
        cut(nodes)
        sim.run(until=sim.now + 2 * 3600.0)
        nodes[0].stack.medium.set_link_filter(None)
        sim.run(until=sim.now + 2 * 3600.0)
        assert not loop.in_fallback

    def test_controller_requires_root(self):
        sim, trace, nodes = hvac_network()
        with pytest.raises(ValueError):
            RemoteHvacController(nodes[1])


class TestBuilding:
    def test_aggregates_across_zones(self):
        sim, trace, nodes = hvac_network(n=4)
        zones = [
            HvacZone(node, lambda t: 0.0, BAND,
                     schedule=ALWAYS_OCCUPIED, initial_temp_c=10.0)
            for node in nodes[1:]
        ]
        for zone in zones:
            zone.start(BangBangController(BAND))
        sim.run(until=sim.now + 6 * 3600.0)
        assert sum(z.zone.energy_used_kwh for z in zones) > 0.0
        assert sum(z.comfort.violation_degree_hours for z in zones) >= 0.0
        assert len(zones) == 3
