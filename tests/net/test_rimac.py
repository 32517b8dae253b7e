"""Receiver-initiated MAC behaviour."""

from repro.net.mac import rimac
from repro.net.mac.rimac import RiMac
from repro.net.packet import BROADCAST, FrameKind
from repro.radio.medium import Medium, Radio
from repro.radio.propagation import UnitDiskModel
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceLog


def make_pair(sim, distance=10.0):
    medium = Medium(sim, UnitDiskModel(radius_m=25.0), TraceLog())
    a = RiMac(Radio(medium, 1, (0, 0)))
    b = RiMac(Radio(medium, 2, (distance, 0)))
    a.start()
    b.start()
    return medium, a, b


class TestUnicast:
    def test_data_rides_on_receiver_beacon(self, sim):
        _, a, b = make_pair(sim)
        got, outcome = [], []
        b.on_receive = lambda frame: got.append(sim.now)
        sent_at = 1.0
        sim.schedule(sent_at, lambda: a.send(2, "x", 20, done=outcome.append))
        sim.run(until=5.0)
        assert outcome == [True]
        # Delivery had to wait for b's beacon: bounded by a jittered interval.
        assert got[0] - sent_at <= rimac.WAKE_INTERVAL_S * (1 + rimac.JITTER) + 0.2

    def test_unreachable_unicast_fails_after_wait(self, sim, monkeypatch):
        monkeypatch.setattr(rimac, "MAX_RETRIES", 0)
        _, a, b = make_pair(sim, distance=100.0)
        outcome = []
        a.send(2, "x", 20, done=outcome.append)
        sim.run(until=5.0)
        assert outcome == [False]

    def test_beacons_are_periodic(self, sim):
        _, a, b = make_pair(sim)
        sim.run(until=10.0)
        # ~20 beacons in 10 s at 0.5 s intervals, modulo jitter.
        assert 10 <= a.stats.tx_attempts <= 35

    def test_beacon_period_follows_the_patched_wake_interval(
            self, sim, monkeypatch):
        # Patched after the module is imported and before the MACs are
        # built: the period is read at run time, not bound at import.
        monkeypatch.setattr(rimac, "WAKE_INTERVAL_S", 2.0)
        _, a, b = make_pair(sim)
        sim.run(until=20.0)
        # ~10 beacons in 20 s at 2 s intervals, modulo jitter.
        assert 7 <= a.stats.tx_attempts <= 13
        assert 7 <= b.stats.tx_attempts <= 13

    def test_sender_waits_listening(self, sim):
        _, a, b = make_pair(sim)
        sim.schedule(1.0, lambda: a.send(2, "x", 20))
        sim.run(until=10.0)
        # The sender's rendezvous wait costs duty cycle vs pure beaconing.
        assert a.duty_cycle() >= b.duty_cycle()


class TestBroadcast:
    def test_broadcast_serves_beaconing_neighbors(self, sim):
        _, a, b = make_pair(sim)
        got, outcome = [], []
        b.on_receive = lambda frame: got.append(frame.payload)
        sim.schedule(1.0, lambda: a.send(BROADCAST, "x", 20, done=outcome.append))
        sim.run(until=5.0)
        assert got == ["x"]
        assert outcome == [True]


class TestEnergy:
    def test_idle_duty_cycle_is_low(self, sim):
        _, a, b = make_pair(sim)
        sim.run(until=300.0)
        assert a.duty_cycle() < 0.06
        assert b.duty_cycle() < 0.06

