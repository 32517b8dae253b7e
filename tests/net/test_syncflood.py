"""Synchronous-flooding primitive."""

import pytest

from repro.net.mac import syncflood
from repro.net.mac.syncflood import FloodResult, SyncFloodConfig, SyncFloodService
from repro.radio.medium import Medium, Radio
from repro.radio.propagation import UnitDiskModel
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceLog


def make_line(sim, n=6, spacing=20.0):
    medium = Medium(sim, UnitDiskModel(radius_m=25.0), TraceLog())
    for i in range(n):
        Radio(medium, i, (i * spacing, 0.0))
    return medium


class TestFlood:
    def test_latency_is_hops_times_slot(self, sim):
        medium = make_line(sim, 6)
        service = SyncFloodService(medium,
                                   SyncFloodConfig(per_hop_reliability=1.0))
        result = service.flood(0)
        for node, latency in result.reached.items():
            assert latency == pytest.approx(node * syncflood.SLOT_S)

    def test_deliver_callbacks_fire_at_latency(self, sim):
        medium = make_line(sim, 4)
        service = SyncFloodService(medium,
                                   SyncFloodConfig(per_hop_reliability=1.0))
        arrivals = []
        service.flood(0, payload="cmd",
                      deliver=lambda n, lat, p: arrivals.append((n, sim.now, p)))
        sim.run(until=1.0)
        assert len(arrivals) == 3
        for node, time, payload in arrivals:
            assert payload == "cmd"
            assert time == pytest.approx(node * syncflood.SLOT_S)

    def test_disconnected_nodes_are_missed(self, sim):
        medium = make_line(sim, 3, spacing=20.0)
        Radio(medium, 99, (1000.0, 0.0))  # unreachable island
        service = SyncFloodService(medium)
        result = service.flood(0)
        assert 99 in result.missed

    def test_dead_nodes_are_missed(self, sim):
        medium = make_line(sim, 4)
        medium.radios[2].enabled = False
        service = SyncFloodService(medium,
                                   SyncFloodConfig(per_hop_reliability=1.0))
        result = service.flood(0)
        assert 2 in result.missed
        # 3 is still reachable through the BFS graph (links exist even if
        # relay is dead — constructive flooding is redundant).
        assert 1 in result.reached

    def test_perfect_links_reach_every_node(self, sim):
        medium = make_line(sim, 5)
        service = SyncFloodService(medium,
                                   SyncFloodConfig(per_hop_reliability=1.0))
        result = service.flood(0)
        assert set(result.reached) == {0, 1, 2, 3, 4}
        assert result.missed == set()

    def test_every_node_is_either_reached_or_missed(self, sim):
        medium = make_line(sim, 8)
        service = SyncFloodService(medium,
                                   SyncFloodConfig(per_hop_reliability=0.5))
        result = service.flood(0)
        assert set(result.reached) | result.missed == set(range(8))
        assert not set(result.reached) & result.missed

    def test_unknown_initiator_rejected(self, sim):
        medium = make_line(sim, 3)
        service = SyncFloodService(medium)
        with pytest.raises(KeyError):
            service.flood(77)

    def test_energy_accounting_grows_with_floods(self, sim):
        medium = make_line(sim, 5)
        service = SyncFloodService(medium)
        service.flood(0)
        first = service.total_radio_on_s
        service.flood(0)
        assert service.total_radio_on_s == pytest.approx(2 * first)

    def test_hop_distances_bfs(self, sim):
        medium = make_line(sim, 5)
        service = SyncFloodService(medium)
        distances = service.hop_distances(0)
        assert distances == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}
