"""Cross-technology interference behaviour."""

import pytest

from repro.faults.plan import InterferenceClause
from repro.radio.interference import WifiInterferer
from repro.radio.medium import Medium, Radio
from repro.radio.propagation import UnitDiskModel
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceLog


class TestWifiInterferer:
    def _setup(self, sim, victim_channel, wifi_channel, duty=0.6):
        trace = TraceLog()
        medium = Medium(sim, UnitDiskModel(radius_m=50.0), trace)
        sender = Radio(medium, 1, (0, 0), channel=victim_channel)
        receiver = Radio(medium, 2, (10, 0), channel=victim_channel)
        receiver.set_listening()
        interferer = WifiInterferer(medium, InterferenceClause(
            0.0, 100.0, (5, 5), wifi_channel=wifi_channel, duty_cycle=duty,
            node_id=99))
        return trace, medium, sender, receiver, interferer

    def _run_traffic(self, sim, sender, count=60, gap=0.05):
        for i in range(count):
            sim.schedule(1.0 + i * gap, (lambda: sender.transmit("d", 20)))
        sim.run(until=1.0 + count * gap + 1.0)

    def test_overlapping_interferer_degrades_prr(self):
        sim = Simulator(seed=3)
        trace, medium, sender, receiver, interferer = self._setup(
            sim, victim_channel=18, wifi_channel=6,  # overlapping
        )
        interferer.start()
        self._run_traffic(sim, sender)
        received_with = receiver.frames_received

        sim2 = Simulator(seed=3)
        trace2, medium2, sender2, receiver2, _ = self._setup(
            sim2, victim_channel=18, wifi_channel=6,
        )
        self._run_traffic(sim2, sender2)
        received_without = receiver2.frames_received
        assert received_with < received_without

    def test_non_overlapping_channel_unaffected(self):
        sim = Simulator(seed=3)
        trace, medium, sender, receiver, interferer = self._setup(
            sim, victim_channel=26, wifi_channel=6,  # clear channel
        )
        interferer.start()
        self._run_traffic(sim, sender)
        assert receiver.frames_received == 60

    def test_interferer_frames_are_never_received(self):
        sim = Simulator(seed=3)
        trace, medium, sender, receiver, interferer = self._setup(
            sim, victim_channel=18, wifi_channel=6,
        )
        interferer.start()
        sim.run(until=5.0)
        assert interferer.bursts_sent > 0
        assert receiver.frames_received == 0

    def test_mean_gap_matches_duty_cycle(self):
        sim = Simulator(seed=3)
        *_, interferer = self._setup(sim, 18, 6, duty=0.5)
        rates = []
        interferer._rng.expovariate = lambda rate: rates.append(rate) or 0.0
        interferer._gap_s()
        # Half the airtime busy: gaps as long as the 2 ms bursts.
        assert 1.0 / rates[0] == pytest.approx(0.002)

    def test_stop_ceases_bursts(self):
        sim = Simulator(seed=3)
        _, _, _, _, interferer = self._setup(sim, 18, 6)
        interferer.start()
        sim.run(until=2.0)
        interferer.stop()
        sent = interferer.bursts_sent
        sim.run(until=10.0)
        assert interferer.bursts_sent == sent
