"""Low-power-listening MAC behaviour: rendezvous, latency, energy."""

import pytest

from repro.net.mac.base import MacConfigError
from repro.net.mac import lpl
from repro.net.mac.lpl import LplConfig, LplMac
from repro.net.packet import BROADCAST
from repro.radio.medium import Medium, Radio
from repro.radio.propagation import UnitDiskModel
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceLog


def make_line(sim, n=2, spacing=10.0, config=None):
    medium = Medium(sim, UnitDiskModel(radius_m=25.0), TraceLog())
    macs = []
    for i in range(n):
        mac = LplMac(Radio(medium, i + 1, (i * spacing, 0)),
                     config=config)
        mac.start()
        macs.append(mac)
    return medium, macs


class TestRendezvous:
    def test_unicast_delivered_within_wake_interval(self, sim):
        config = LplConfig(wake_interval_s=0.5)
        _, macs = make_line(sim, 2, config=config)
        a, b = macs
        got, outcome = [], []
        b.on_receive = lambda frame: got.append(sim.now)
        sent_at = 1.0
        sim.schedule(sent_at, lambda: a.send(2, "x", 20, done=outcome.append))
        sim.run(until=5.0)
        assert got and outcome == [True]
        latency = got[0] - sent_at
        assert latency <= config.wake_interval_s + lpl.STROBE_MARGIN_S

    def test_strobe_stops_early_on_ack(self, sim):
        config = LplConfig(wake_interval_s=1.0)
        _, macs = make_line(sim, 2, config=config)
        a, b = macs
        done_at = []
        sim.schedule(1.0, lambda: a.send(2, "x", 20,
                                         done=lambda ok: done_at.append(sim.now)))
        sim.run(until=5.0)
        # The job should finish well before a full 1 s strobe on average;
        # allow the full interval as the hard bound.
        assert done_at and done_at[0] - 1.0 <= 1.0 + lpl.STROBE_MARGIN_S

    def test_broadcast_strobes_full_interval(self, sim):
        config = LplConfig(wake_interval_s=0.5)
        _, macs = make_line(sim, 3, config=config)
        a = macs[0]
        done_at = []
        sim.schedule(1.0, lambda: a.send(BROADCAST, "x", 20,
                                         done=lambda ok: done_at.append(sim.now)))
        sim.run(until=5.0)
        assert done_at
        assert done_at[0] - 1.0 >= config.wake_interval_s

    def test_broadcast_reaches_multiple_neighbors(self, sim):
        config = LplConfig(wake_interval_s=0.5)
        medium = Medium(sim, UnitDiskModel(radius_m=25.0), TraceLog())
        center = LplMac(Radio(medium, 1, (0, 0)), config=config)
        left = LplMac(Radio(medium, 2, (-10, 0)), config=config)
        right = LplMac(Radio(medium, 3, (10, 0)), config=config)
        got = []
        for mac in (center, left, right):
            mac.start()
        left.on_receive = lambda frame: got.append("left")
        right.on_receive = lambda frame: got.append("right")
        sim.schedule(1.0, lambda: center.send(BROADCAST, "x", 20))
        sim.run(until=5.0)
        assert sorted(got) == ["left", "right"]

    def test_duplicate_copies_suppressed(self, sim):
        # Receivers hear several strobe copies but deliver only one.
        config = LplConfig(wake_interval_s=0.5)
        _, macs = make_line(sim, 2, config=config)
        a, b = macs
        got = []
        b.on_receive = lambda frame: got.append(frame.payload)
        sim.schedule(1.0, lambda: a.send(BROADCAST, "x", 20))
        sim.run(until=5.0)
        assert got == ["x"]
        assert b.stats.rx_duplicates >= 0  # duplicates counted, not delivered

    def test_unreachable_unicast_fails(self, sim):
        config = LplConfig(wake_interval_s=0.5)
        medium = Medium(sim, UnitDiskModel(radius_m=25.0), TraceLog())
        a = LplMac(Radio(medium, 1, (0, 0)), config=config)
        b = LplMac(Radio(medium, 2, (100, 0)), config=config)
        a.start()
        b.start()
        outcome = []
        a.send(2, "x", 20, done=outcome.append)
        sim.run(until=10.0)
        assert outcome == [False]


class TestEnergy:
    def test_idle_duty_cycle_is_low(self, sim):
        config = LplConfig(wake_interval_s=0.5)
        _, macs = make_line(sim, 2, config=config)
        sim.run(until=300.0)
        for mac in macs:
            assert mac.duty_cycle() < 0.05

    def test_longer_wake_interval_lowers_idle_duty_cycle(self):
        cycles = []
        for interval in (0.25, 1.0):
            sim = Simulator(seed=5)
            _, macs = make_line(sim, 2,
                                config=LplConfig(wake_interval_s=interval))
            sim.run(until=300.0)
            cycles.append(macs[0].duty_cycle())
        assert cycles[1] < cycles[0]

    def test_sender_pays_strobe_energy(self, sim):
        config = LplConfig(wake_interval_s=0.5)
        _, macs = make_line(sim, 2, config=config)
        a, b = macs
        for i in range(20):
            sim.schedule(1.0 + i * 5.0, (lambda: a.send(2, "x", 20)))
        sim.run(until=120.0)
        assert a.duty_cycle() > b.duty_cycle()


class TestConfig:
    def test_invalid_config_rejected(self, monkeypatch):
        with pytest.raises(MacConfigError):
            LplConfig(wake_interval_s=0.0)
        # The probe must fit inside the (settable) wake interval.
        LplConfig(wake_interval_s=0.1)
        monkeypatch.setattr(lpl, "PROBE_DURATION_S", 0.2)
        with pytest.raises(MacConfigError):
            LplConfig(wake_interval_s=0.1)
