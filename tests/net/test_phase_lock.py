"""ContikiMAC-style phase lock on the LPL MAC."""

import pytest

from repro.net.mac.lpl import LplConfig, LplMac
from repro.radio.medium import Medium, Radio
from repro.radio.propagation import UnitDiskModel
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceLog


def make_pair(seed, lock):
    sim = Simulator(seed=seed)
    medium = Medium(sim, UnitDiskModel(radius_m=25.0), TraceLog())
    config = LplConfig(wake_interval_s=0.5, phase_lock=lock)
    a = LplMac(Radio(medium, 1, (0, 0)), config=config)
    b = LplMac(Radio(medium, 2, (10, 0)), config=config)
    a.start()
    b.start()
    return sim, a, b


def drive_traffic(sim, a, count=40, period=5.13):
    # The period is deliberately incommensurate with the 0.5 s wake
    # interval: a multiple would freeze the sender/receiver phase offset
    # and make the unlocked baseline's cost depend on the seed.
    outcomes = []
    for i in range(count):
        sim.schedule(5.0 + i * period,
                     (lambda: a.send(2, "x", 20, done=outcomes.append)))
    sim.run(until=10.0 + count * period)
    return outcomes


class TestPhaseLock:
    def test_delivery_unchanged(self):
        for lock in (False, True):
            sim, a, b = make_pair(seed=11, lock=lock)
            outcomes = drive_traffic(sim, a)
            assert all(outcomes), f"lock={lock}"

    def test_sender_duty_cycle_drops(self):
        sim, a, _ = make_pair(seed=11, lock=False)
        drive_traffic(sim, a)
        unlocked = a.duty_cycle()
        sim, a, _ = make_pair(seed=11, lock=True)
        drive_traffic(sim, a)
        locked = a.duty_cycle()
        assert locked < unlocked * 0.6

    def test_hits_accumulate_after_first_exchange(self):
        sim, a, _ = make_pair(seed=12, lock=True)
        drive_traffic(sim, a, count=20)
        assert a.phase_lock_hits >= 18
        assert a.phase_lock_misses <= 1

    def test_stale_phase_falls_back_and_relearns(self):
        sim, a, b = make_pair(seed=13, lock=True)
        drive_traffic(sim, a, count=5)
        assert 2 in a._neighbor_phase
        # Poison the phase estimate; the short strobe misses, the retry
        # strobes the full interval and relearns.
        a._neighbor_phase[2] = a._neighbor_phase[2] + 0.25  # half period off
        outcomes = []
        a.send(2, "after-drift", 20, done=outcomes.append)
        sim.run(until=sim.now + 5.0)
        assert outcomes == [True]

    def test_broadcast_never_phase_locked(self):
        from repro.net.packet import BROADCAST

        sim, a, b = make_pair(seed=14, lock=True)
        got = []
        b.on_receive = lambda frame: got.append(frame.payload)
        drive_traffic(sim, a, count=3)  # learn the phase
        done = []
        a.send(BROADCAST, "to-all", 20, done=done.append)
        sim.run(until=sim.now + 5.0)
        assert done == [True]
        assert "to-all" in got
