"""CSMA/CA MAC behaviour."""

import pytest

from repro.net.mac import base
from repro.net.mac.csma import CsmaConfig, CsmaMac
from repro.net.mac.base import MacConfigError
from repro.net.packet import BROADCAST
from repro.radio.medium import Medium, Radio
from repro.radio.propagation import UnitDiskModel
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceLog


def make_pair(sim, distance=10.0, **cfg):
    medium = Medium(sim, UnitDiskModel(radius_m=25.0), TraceLog())
    a = CsmaMac(Radio(medium, 1, (0, 0)), **cfg)
    b = CsmaMac(Radio(medium, 2, (distance, 0)), **cfg)
    a.start()
    b.start()
    return medium, a, b


class TestUnicast:
    def test_delivery_with_ack(self, sim):
        _, a, b = make_pair(sim)
        got, outcome = [], []
        b.on_receive = lambda frame: got.append(frame.payload)
        a.send(2, "hi", 20, done=outcome.append)
        sim.run(until=1.0)
        assert got == ["hi"]
        assert outcome == [True]
        assert a.stats.tx_success == 1
        assert b.stats.acks_sent == 1

    def test_unreachable_destination_fails_after_retries(self, sim):
        _, a, b = make_pair(sim, distance=100.0)
        outcome = []
        a.send(2, "hi", 20, done=outcome.append)
        sim.run(until=5.0)
        assert outcome == [False]
        # initial attempt + max_retries
        assert a.stats.tx_attempts == 1 + a.config.max_retries

    def test_duplicate_suppression_on_lost_ack(self, sim):
        # Deliveries are reliable on a unit disk, so force a retry by
        # making the first ACK collide: occupy the victim during SIFS.
        _, a, b = make_pair(sim)
        got = []
        b.on_receive = lambda frame: got.append(frame.payload)
        a.send(2, "one", 20)
        sim.run(until=2.0)
        assert got.count("one") == 1

    def test_queue_serializes_jobs(self, sim):
        _, a, b = make_pair(sim)
        got = []
        b.on_receive = lambda frame: got.append(frame.payload)
        for i in range(5):
            a.send(2, f"m{i}", 20)
        sim.run(until=2.0)
        assert got == [f"m{i}" for i in range(5)]

    def test_queue_overflow_drops(self, sim, monkeypatch):
        monkeypatch.setattr(base, "MAX_QUEUE", 2)
        _, a, b = make_pair(sim)
        outcomes = []
        for i in range(5):
            a.send(2, f"m{i}", 20, done=outcomes.append)
        assert a.stats.queue_drops >= 2
        sim.run(until=2.0)
        assert outcomes.count(True) + outcomes.count(False) == 5


class TestBroadcast:
    def test_broadcast_needs_no_ack(self, sim):
        _, a, b = make_pair(sim)
        got, outcome = [], []
        b.on_receive = lambda frame: got.append(frame.payload)
        a.send(BROADCAST, "hello-all", 20, done=outcome.append)
        sim.run(until=1.0)
        assert got == ["hello-all"]
        assert outcome == [True]
        assert b.stats.acks_sent == 0


class TestChannelAccess:
    def test_backoff_defers_to_busy_channel(self, sim):
        medium = Medium(sim, UnitDiskModel(radius_m=25.0), TraceLog())
        a = CsmaMac(Radio(medium, 1, (0, 0)))
        b = CsmaMac(Radio(medium, 2, (10, 0)))
        c = CsmaMac(Radio(medium, 3, (5, 5)))
        for mac in (a, b, c):
            mac.start()
        got = []
        c.on_receive = lambda frame: got.append(frame.payload)
        short_outcome = []
        # Long frame from a, then b tries during it.  CCA must either
        # defer past the long frame (both deliver) or exhaust its
        # attempts and declare channel-access failure — never collide.
        a.send(3, "long", 800)
        sim.schedule(0.002, lambda: b.send(3, "short", 20,
                                           done=short_outcome.append))
        sim.run(until=2.0)
        assert "long" in got
        assert ("short" in got) == (short_outcome == [True])

    def test_stop_fails_pending_jobs(self, sim):
        _, a, b = make_pair(sim)
        outcomes = []
        for i in range(3):
            a.send(2, f"m{i}", 400, done=outcomes.append)
        a.stop()
        sim.run(until=1.0)
        assert outcomes.count(False) >= 2

    def test_send_after_stop_fails_immediately(self, sim):
        _, a, b = make_pair(sim)
        a.stop()
        outcome = []
        assert a.send(2, "x", 10, done=outcome.append) is False
        assert outcome == [False]


class TestConfig:
    def test_invalid_config_rejected(self):
        with pytest.raises(MacConfigError):
            CsmaConfig(max_retries=-1)

    def test_duty_cycle_is_high_when_always_on(self, sim):
        _, a, b = make_pair(sim)
        sim.run(until=100.0)
        assert a.duty_cycle() > 0.99
