"""Receiver-initiated MAC behaviour."""

import pytest

from repro.net.mac.base import MacConfigError
from repro.net.mac import rimac
from repro.net.mac.rimac import RiMac, RiMacConfig
from repro.net.packet import BROADCAST, FrameKind
from repro.radio.medium import Medium, Radio
from repro.radio.propagation import UnitDiskModel
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceLog


def make_pair(sim, distance=10.0, config=None):
    medium = Medium(sim, UnitDiskModel(radius_m=25.0), TraceLog())
    a = RiMac(Radio(medium, 1, (0, 0)), config=config)
    b = RiMac(Radio(medium, 2, (distance, 0)), config=config)
    a.start()
    b.start()
    return medium, a, b


class TestUnicast:
    def test_data_rides_on_receiver_beacon(self, sim):
        config = RiMacConfig(wake_interval_s=0.5)
        _, a, b = make_pair(sim, config=config)
        got, outcome = [], []
        b.on_receive = lambda frame: got.append(sim.now)
        sent_at = 1.0
        sim.schedule(sent_at, lambda: a.send(2, "x", 20, done=outcome.append))
        sim.run(until=5.0)
        assert outcome == [True]
        # Delivery had to wait for b's beacon: bounded by a jittered interval.
        assert got[0] - sent_at <= config.wake_interval_s * (1 + rimac.JITTER) + 0.2

    def test_unreachable_unicast_fails_after_wait(self, sim, monkeypatch):
        monkeypatch.setattr(rimac, "MAX_RETRIES", 0)
        config = RiMacConfig(wake_interval_s=0.5)
        medium = Medium(sim, UnitDiskModel(radius_m=25.0), TraceLog())
        a = RiMac(Radio(medium, 1, (0, 0)), config=config)
        b = RiMac(Radio(medium, 2, (100, 0)), config=config)
        a.start()
        b.start()
        outcome = []
        a.send(2, "x", 20, done=outcome.append)
        sim.run(until=5.0)
        assert outcome == [False]

    def test_beacons_are_periodic(self, sim):
        config = RiMacConfig(wake_interval_s=0.5)
        _, a, b = make_pair(sim, config=config)
        sim.run(until=10.0)
        # ~20 beacons in 10 s at 0.5 s intervals, modulo jitter.
        assert 10 <= a.stats.tx_attempts <= 35

    def test_sender_waits_listening(self, sim):
        config = RiMacConfig(wake_interval_s=0.5)
        _, a, b = make_pair(sim, config=config)
        sim.schedule(1.0, lambda: a.send(2, "x", 20))
        sim.run(until=10.0)
        # The sender's rendezvous wait costs duty cycle vs pure beaconing.
        assert a.duty_cycle() >= b.duty_cycle()


class TestBroadcast:
    def test_broadcast_serves_beaconing_neighbors(self, sim):
        config = RiMacConfig(wake_interval_s=0.5)
        _, a, b = make_pair(sim, config=config)
        got, outcome = [], []
        b.on_receive = lambda frame: got.append(frame.payload)
        sim.schedule(1.0, lambda: a.send(BROADCAST, "x", 20, done=outcome.append))
        sim.run(until=5.0)
        assert got == ["x"]
        assert outcome == [True]


class TestEnergy:
    def test_idle_duty_cycle_is_low(self, sim):
        config = RiMacConfig(wake_interval_s=0.5)
        _, a, b = make_pair(sim, config=config)
        sim.run(until=300.0)
        assert a.duty_cycle() < 0.06
        assert b.duty_cycle() < 0.06


class TestConfig:
    def test_invalid_config_rejected(self):
        with pytest.raises(MacConfigError):
            RiMacConfig(wake_interval_s=0.0).validate()
