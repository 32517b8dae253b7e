"""Analytic LPL model vs the simulated MAC: they must agree.

A simulator and its own closed-form arithmetic disagreeing is a bug in
one of them; these tests pin the agreement within generous tolerances
(the analytic model ignores CCA deferral and ack micro-timing).
"""

import numpy as np
import pytest

from repro.net.mac.analysis import LplExpectations, frame_airtime_s
from repro.net.mac.lpl import PROBE_DURATION_S, LplConfig, LplMac
from repro.radio.medium import Medium, Radio
from repro.radio.propagation import UnitDiskModel
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceLog


def idle_duty_cycle(config):
    """Radio-on fraction of an LPL node with no traffic at all: one
    probe per wake interval (the occasional hold aside)."""
    return min(1.0, PROBE_DURATION_S / config.wake_interval_s)


def run_one_hop(config, count=60, period=4.31, seed=7):
    sim = Simulator(seed=seed)
    medium = Medium(sim, UnitDiskModel(radius_m=25.0), TraceLog())
    sender = LplMac(Radio(medium, 1, (0, 0)), config=config)
    receiver = LplMac(Radio(medium, 2, (10, 0)), config=config)
    sender.start()
    receiver.start()
    latencies = []
    sent_at = {}

    def on_receive(frame):
        latencies.append(sim.now - sent_at[frame.payload])

    receiver.on_receive = on_receive
    for i in range(count):
        def send(k=i):
            sent_at[k] = sim.now
            sender.send(2, k, 20)

        sim.schedule(5.0 + i * period, send)
    sim.run(until=10.0 + count * period)
    return sim, sender, receiver, latencies


class TestAgainstSimulation:
    def test_hop_latency_matches_w_over_2(self):
        config = LplConfig(wake_interval_s=0.5)
        _, _, _, latencies = run_one_hop(config)
        measured = sum(latencies) / len(latencies)
        # Rendezvous U(0, W) plus one frame.
        assert measured == pytest.approx(
            config.wake_interval_s / 2.0 + frame_airtime_s(20), rel=0.35)

    def test_idle_duty_cycle_matches(self):
        config = LplConfig(wake_interval_s=0.5)
        sim = Simulator(seed=9)
        medium = Medium(sim, UnitDiskModel(radius_m=25.0), TraceLog())
        mac = LplMac(Radio(medium, 1, (0, 0)), config=config)
        mac.start()
        sim.run(until=600.0)
        assert mac.duty_cycle() == pytest.approx(
            idle_duty_cycle(config), rel=0.4)

    def test_sender_duty_cycle_matches_both_modes(self):
        rate = 1.0 / 4.31
        for phase_lock in (False, True):
            config = LplConfig(wake_interval_s=0.5, phase_lock=phase_lock)
            model = LplExpectations(config)
            _, sender, _, _ = run_one_hop(config)
            expected = (idle_duty_cycle(config)
                        + rate * model.sender_strobe_airtime_s(20))
            assert sender.duty_cycle() == pytest.approx(
                expected, rel=0.5), phase_lock

    def test_latency_scales_linearly_with_w(self):
        points = []
        for w in (0.25, 0.5, 1.0, 2.0):
            config = LplConfig(wake_interval_s=w)
            _, _, _, latencies = run_one_hop(config, count=40)
            points.append((w, sum(latencies) / len(latencies)))
        ws, means = zip(*points)
        slope, _ = np.polyfit(ws, means, 1)
        # Slope ~0.5 (the W/2 law), good linearity.
        assert slope == pytest.approx(0.5, abs=0.15)
        assert np.corrcoef(ws, means)[0, 1] ** 2 > 0.95


class TestModelBasics:
    def test_airtime_arithmetic(self):
        # (11 PHY + 9 MAC + 20 payload) * 8 / 250k = 1.28 ms.
        assert frame_airtime_s(20) == pytest.approx(0.00128)

    def test_phase_lock_shrinks_sender_cost(self):
        unlocked = LplExpectations(LplConfig(wake_interval_s=0.5))
        locked = LplExpectations(
            LplConfig(wake_interval_s=0.5, phase_lock=True))
        assert (locked.sender_strobe_airtime_s()
                < unlocked.sender_strobe_airtime_s() / 3)
