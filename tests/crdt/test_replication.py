"""Anti-entropy replication and the CP store over the simulated network."""

import pytest

from repro.crdt.maps import LWWMap
from repro.crdt.replication import AntiEntropyConfig, CrdtReplica, NetworkReplicator
from repro.crdt import store
from repro.crdt.store import CoordinatedStore, StoreClient
from tests.conftest import build_grid_network


def gossiping_grid(side=3, seed=70, period=10.0):
    sim, trace, stacks = build_grid_network(side, seed=seed)
    sim.run(until=120.0)
    replicas = [CrdtReplica(s.node_id, LWWMap(s.node_id)) for s in stacks]
    replicators = [
        NetworkReplicator(s, r, AntiEntropyConfig(period_s=period))
        for s, r in zip(stacks, replicas)
    ]
    for replicator in replicators:
        replicator.start()
    return sim, trace, stacks, replicas, replicators


class TestNetworkReplicator:
    def test_update_spreads_to_all_replicas(self):
        sim, trace, stacks, replicas, replicators = gossiping_grid()
        replicas[8].mutate(lambda s: s.set("alarm", "ON", sim.now))
        replicators[8].notify_local_update()
        sim.run(until=sim.now + 120.0)
        assert all(r.state.get("alarm") == "ON" for r in replicas)

    def test_concurrent_updates_converge_lww(self):
        sim, trace, stacks, replicas, replicators = gossiping_grid()
        replicas[0].mutate(lambda s: s.set("k", "early", sim.now))
        sim.run(until=sim.now + 1.0)
        replicas[8].mutate(lambda s: s.set("k", "late", sim.now))
        for replicator in replicators:
            replicator.notify_local_update()
        sim.run(until=sim.now + 200.0)
        values = {r.state.get("k") for r in replicas}
        assert values == {"late"}

    def test_rumor_round_speeds_convergence(self):
        sim, trace, stacks, replicas, replicators = gossiping_grid(period=60.0)
        start = sim.now
        replicas[0].mutate(lambda s: s.set("x", 1, sim.now))
        replicators[0].notify_local_update()
        sim.run(until=start + 50.0)  # less than one full period
        reached = sum(1 for r in replicas if r.state.get("x") == 1)
        assert reached > 1  # rumor rounds spread it before the period tick

    def test_dead_node_stops_gossiping_but_rest_converge(self):
        sim, trace, stacks, replicas, replicators = gossiping_grid()
        stacks[4].fail()  # grid center
        replicas[8].mutate(lambda s: s.set("k", 1, sim.now))
        replicators[8].notify_local_update()
        sim.run(until=sim.now + 200.0)
        alive = [r for s, r in zip(stacks, replicas) if s.alive]
        assert all(r.state.get("k") == 1 for r in alive)

    def test_stats_track_gossip(self):
        sim, trace, stacks, replicas, replicators = gossiping_grid()
        sim.run(until=sim.now + 60.0)
        assert all(rep.gossips_sent > 0 for rep in replicators)
        assert all(rep.bytes_sent > 0 for rep in replicators)


def cut(stacks):
    """Sever every link across x=30, as a partition clause would."""
    left = {s.node_id for s in stacks if s.radio.position[0] < 30.0}
    stacks[0].medium.set_link_filter(lambda a, b: (a in left) != (b in left))


class TestPartitionedReplication:
    def test_both_sides_stay_writable_and_heal(self):
        sim, trace, stacks, replicas, replicators = gossiping_grid(seed=71)
        cut(stacks)
        # Writes on both sides during the partition.
        replicas[0].mutate(lambda s: s.set("left", 1, sim.now))
        replicators[0].notify_local_update()
        replicas[8].mutate(lambda s: s.set("right", 2, sim.now))
        replicators[8].notify_local_update()
        sim.run(until=sim.now + 120.0)
        # Divided: left value hasn't crossed.
        assert replicas[8].state.get("left") is None
        stacks[0].medium.set_link_filter(None)
        sim.run(until=sim.now + 200.0)
        assert all(
            r.state.get("left") == 1 and r.state.get("right") == 2
            for r in replicas
        )


class TestCoordinatedStore:
    def test_put_get_round_trip(self):
        sim, trace, stacks = build_grid_network(3, seed=72)
        sim.run(until=120.0)
        CoordinatedStore(stacks[0])
        client = StoreClient(stacks[8], coordinator=0)
        results = []
        client.put("k", 42, lambda ok, v: results.append(("put", ok)))
        sim.run(until=sim.now + 30.0)
        client.get("k", lambda ok, v: results.append(("get", ok, v)))
        sim.run(until=sim.now + 30.0)
        assert results == [("put", True), ("get", True, 42)]
        assert client.availability == 1.0

    def test_partition_blocks_cp_operations(self, monkeypatch):
        monkeypatch.setattr(store, "REQUEST_TIMEOUT_S", 20.0)
        sim, trace, stacks = build_grid_network(3, seed=72)
        sim.run(until=120.0)
        CoordinatedStore(stacks[0])
        client = StoreClient(stacks[8], coordinator=0)
        cut(stacks)
        results = []
        client.put("k", 1, lambda ok, v: results.append(ok))
        sim.run(until=sim.now + 60.0)
        assert results == [False]
        assert client.availability < 1.0

    def test_store_requires_root(self):
        sim, trace, stacks = build_grid_network(2, seed=72)
        with pytest.raises(ValueError):
            CoordinatedStore(stacks[1])

    def test_get_missing_key_returns_none_value(self):
        sim, trace, stacks = build_grid_network(2, seed=73)
        sim.run(until=60.0)
        CoordinatedStore(stacks[0])
        client = StoreClient(stacks[1], coordinator=0)
        results = []
        client.get("ghost", lambda ok, v: results.append((ok, v)))
        sim.run(until=sim.now + 30.0)
        assert results == [(True, None)]
