"""Fault injection: scripted, stochastic, and partitions."""

import pytest

from repro.devices.node import DeviceNode
from repro.devices.sensors import SensorFault
from repro.faults.failures import FailureProcess, FailureProcessConfig
from repro.faults.injector import FaultInjector
from repro.faults.partitions import GeometricPartition, PartitionController
from repro.net.stack import StackConfig
from repro.radio.medium import Medium
from repro.radio.propagation import UnitDiskModel
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceLog
from tests.conftest import constant_field


def device_line(n=4, seed=110):
    sim = Simulator(seed=seed)
    trace = TraceLog()
    medium = Medium(sim, UnitDiskModel(radius_m=25.0), trace)
    config = StackConfig(mac="csma")
    nodes = {}
    for i in range(n):
        node = DeviceNode(sim, medium, i, (i * 20.0, 0.0), config,
                          is_root=(i == 0), trace=trace)
        node.add_sensor("temp", constant_field(20.0))
        node.start()
        nodes[i] = node
    return sim, trace, medium, nodes


class TestFaultInjector:
    def test_scheduled_crash_and_recovery(self):
        sim, trace, medium, nodes = device_line()
        injector = FaultInjector(sim, nodes, trace)
        injector.crash_at(100.0, 2, recover_after=50.0)
        sim.run(until=120.0)
        assert not nodes[2].alive
        sim.run(until=200.0)
        assert nodes[2].alive
        kinds = [fault.kind for fault in injector.injected]
        assert kinds == ["crash", "recover"]

    def test_sensor_fault_window(self):
        sim, trace, medium, nodes = device_line()
        injector = FaultInjector(sim, nodes, trace)
        injector.sensor_fault_at(50.0, 3, "temp", SensorFault.DEAD,
                                 clear_after=100.0)
        sim.run(until=60.0)
        assert nodes[3].read("temp") is None
        sim.run(until=200.0)
        assert nodes[3].read("temp") is not None


class TestFailureProcess:
    def test_failures_and_repairs_cycle(self):
        sim, trace, medium, nodes = device_line()
        process = FailureProcess(
            sim, nodes,
            FailureProcessConfig(mtbf_s=500.0, mttr_s=100.0),
            trace,
        )
        process.start()
        sim.run(until=6000.0)
        assert process.failures > 0
        assert process.repairs > 0

    def test_root_is_spared_by_default(self):
        sim, trace, medium, nodes = device_line()
        process = FailureProcess(
            sim, nodes,
            FailureProcessConfig(mtbf_s=100.0, mttr_s=1e9),
            trace,
        )
        process.start()
        sim.run(until=5000.0)
        assert nodes[0].alive

    def test_availability_accounting(self):
        sim, trace, medium, nodes = device_line()
        process = FailureProcess(
            sim, nodes,
            FailureProcessConfig(mtbf_s=1000.0, mttr_s=200.0),
            trace,
        )
        process.start()
        sim.run(until=20_000.0)
        process.drain()  # close the intervals of nodes still down
        down_s = sum(up_at - down_at
                     for _node, down_at, up_at in process.downtime)
        eligible = sum(1 for node in nodes.values() if not node.is_root)
        availability = 1.0 - down_s / (eligible * sim.now)
        # MTBF/(MTBF+MTTR) ≈ 0.83; allow wide stochastic slack.
        assert 0.5 < availability < 1.0

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            FailureProcessConfig(mtbf_s=0.0).validate()


class TestPartitions:
    def test_geometric_side_assignment(self):
        partition = GeometricPartition(cut_x=50.0)
        assert partition.side((10.0, 0.0)) == 0
        assert partition.side((60.0, 0.0)) == 1

    def test_apply_cuts_cross_links_only(self):
        sim, trace, medium, nodes = device_line()
        controller = PartitionController(sim, medium, trace)
        sides = controller.apply(GeometricPartition(cut_x=30.0))
        assert sides == {0: 0, 1: 0, 2: 1, 3: 1}
        assert controller.sides == sides
        # Same-side traffic still flows.
        got = []
        sim.run(until=120.0)
        nodes[0].stack.bind(7, lambda d: got.append(d.src))
        nodes[1].stack.send_datagram(0, 7, "x", 4)
        sim.run(until=140.0)
        assert got == [1]

    def test_heal_restores(self):
        sim, trace, medium, nodes = device_line()
        controller = PartitionController(sim, medium, trace)
        controller.apply(GeometricPartition(cut_x=30.0))
        controller.heal()
        assert controller.sides is None

    def test_scheduled_partition_with_heal(self):
        sim, trace, medium, nodes = device_line()
        controller = PartitionController(sim, medium, trace)
        controller.apply_at(100.0, GeometricPartition(cut_x=30.0),
                            heal_after=50.0)
        sim.run(until=120.0)
        assert controller.sides is not None
        sim.run(until=200.0)
        assert controller.sides is None
        assert trace.count("partition.applied") == 1
        assert trace.count("partition.healed") == 1
