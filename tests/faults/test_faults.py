"""Fault injection: scripted and stochastic clauses, and partitions."""

from types import SimpleNamespace

import pytest

from repro.devices.node import DeviceNode
from repro.devices.sensors import SensorFault
from repro.faults import plan
from repro.faults.plan import (CrashClause, LinkFlapClause, PartitionClause,
                               RandomCrashesClause, SensorClause)
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
        node = DeviceNode(medium, i, (i * 20.0, 0.0), config,
                          is_root=(i == 0))
        node.add_sensor("temp", constant_field(20.0))
        node.start()
        nodes[i] = node
    return sim, trace, medium, nodes


def install(clauses, sim, trace, medium, nodes):
    """Compile ``clauses`` onto a bare device line (what a schedule needs
    of a system: its kernel, trace, medium, nodes and root)."""
    system = SimpleNamespace(sim=sim, trace=trace, medium=medium, nodes=nodes,
                             topology=SimpleNamespace(root_id=0))
    return plan.install(system, clauses)


def blocked(medium, a, b):
    """Whether the medium's link filter severs a—b now."""
    return medium._link_filter is not None and medium._link_filter(a, b)


class TestScriptedFaults:
    def test_scheduled_crash_and_recovery(self):
        sim, trace, medium, nodes = device_line()
        kinds = []
        for category in ("fault.crash", "fault.recover"):
            trace.subscribe(category, lambda r: kinds.append(r.category))
        install([CrashClause(100.0, 2, recover_after_s=50.0)],
                sim, trace, medium, nodes)
        sim.run(until=120.0)
        assert not nodes[2].alive
        sim.run(until=200.0)
        assert nodes[2].alive
        assert kinds == ["fault.crash", "fault.recover"]

    def test_sensor_fault_window(self, monkeypatch):
        monkeypatch.setattr(plan, "SENSOR_FAULT", SensorFault.DEAD)
        sim, trace, medium, nodes = device_line()
        install([SensorClause(50.0, 3, "temp", clear_after_s=100.0)],
                sim, trace, medium, nodes)
        sim.run(until=60.0)
        assert nodes[3].read("temp") is None
        sim.run(until=200.0)
        assert nodes[3].read("temp") is not None
        assert trace.count("fault.sensor") == trace.count("fault.sensor_clear") == 1


class TestRandomCrashes:
    def test_failures_and_repairs_cycle(self):
        sim, trace, medium, nodes = device_line()
        install([RandomCrashesClause(0.0, 10_000.0, mtbf_s=500.0,
                                     mttr_s=100.0)],
                sim, trace, medium, nodes)
        sim.run(until=6000.0)
        assert trace.count("fault.random_crash") > 0
        assert trace.count("fault.random_repair") > 0

    def test_root_is_spared_by_default(self):
        sim, trace, medium, nodes = device_line()
        install([RandomCrashesClause(0.0, 10_000.0, mtbf_s=100.0,
                                     mttr_s=1e9)],
                sim, trace, medium, nodes)
        sim.run(until=5000.0)
        assert nodes[0].alive
        assert not any(nodes[i].alive for i in (1, 2, 3))

    def test_availability_accounting(self):
        sim, trace, medium, nodes = device_line()
        down_since, down_s = {}, []
        trace.subscribe("fault.random_crash",
                        lambda r: down_since.__setitem__(r.node, r.time))
        trace.subscribe("fault.random_repair",
                        lambda r: down_s.append(r.time - down_since.pop(r.node)))
        duration = 20_000.0
        install([RandomCrashesClause(0.0, duration, mtbf_s=1000.0,
                                     mttr_s=200.0)],
                sim, trace, medium, nodes)
        sim.run(until=duration)  # the window's end repairs nodes still down
        assert not down_since
        eligible = sum(1 for node in nodes.values() if not node.is_root)
        availability = 1.0 - sum(down_s) / (eligible * duration)
        # MTBF/(MTBF+MTTR) ≈ 0.83; allow wide stochastic slack.
        assert 0.5 < availability < 1.0

    def test_invalid_config_rejected(self):
        for mtbf_s, mttr_s, field in ((0.0, 600.0, "mtbf_s"),
                                      (3600.0, -1.0, "mttr_s"),
                                      (float("inf"), 600.0, "mtbf_s")):
            with pytest.raises(ValueError,
                               match=f"RandomCrashesClause.{field}"):
                RandomCrashesClause(0.0, 100.0, mtbf_s=mtbf_s, mttr_s=mttr_s)


class TestPartitions:
    def test_partition_cuts_cross_links_only(self):
        sim, trace, medium, nodes = device_line()
        runtime = install([PartitionClause(0.0, cut_x=30.0)],
                          sim, trace, medium, nodes)
        sim.run(until=0.0)
        assert runtime.sides == {0: 0, 1: 0, 2: 1, 3: 1}
        assert blocked(medium, 1, 2) and not blocked(medium, 0, 1)
        # Same-side traffic still flows.
        got = []
        sim.run(until=120.0)
        nodes[0].stack.bind(7, lambda d: got.append(d.src))
        nodes[1].stack.send_datagram(0, 7, "x", 4)
        sim.run(until=140.0)
        assert got == [1]

    def test_scheduled_partition_with_heal(self):
        sim, trace, medium, nodes = device_line()
        runtime = install([PartitionClause(100.0, cut_x=30.0,
                                           heal_after_s=50.0)],
                          sim, trace, medium, nodes)
        sim.run(until=120.0)
        assert runtime.sides is not None
        sim.run(until=200.0)
        assert runtime.sides is None
        assert not blocked(medium, 1, 2)
        assert trace.count("partition.applied") == 1
        assert trace.count("partition.healed") == 1

    def test_heal_leaves_a_flapped_link_blocked(self):
        """The link filter composes the cut with blocked links: a flap
        inside a partition outlives the heal, and its own end restores
        the link."""
        sim, trace, medium, nodes = device_line()
        install([PartitionClause(100.0, cut_x=30.0, heal_after_s=50.0),
                 LinkFlapClause(120.0, 1, 0, down_s=60.0)],
                sim, trace, medium, nodes)
        sim.run(until=130.0)
        assert blocked(medium, 0, 1) and blocked(medium, 1, 2)
        sim.run(until=160.0)  # healed; the flap is still down
        assert blocked(medium, 0, 1) and not blocked(medium, 1, 2)
        sim.run(until=200.0)
        assert not blocked(medium, 0, 1)
        assert medium._link_filter is None
        assert trace.count("partition.link_down") == 1
        assert trace.count("partition.link_up") == 1
