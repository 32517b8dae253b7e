"""Acceptance: middleware rounds reconstruct as cross-node span trees.

An anti-entropy gossip round is one tree: the sender's broadcast at the
root, the MAC/radio work beneath it, and a ``crdt.merge`` event at
every receiver that folded the digest in.  An aggregation epoch gets a
retroactive ``agg.epoch`` span at the root plus per-hop ``agg.partial``
spans whose folds land in the *sender's* trace.  Fragmented datagrams
grow per-fragment child spans beneath their hop.
"""

from repro.aggregation.service import AggregationService
from repro.crdt.counters import GCounter
from repro.crdt.replication import AntiEntropyConfig, CrdtReplica, NetworkReplicator
from repro.devices.node import DeviceNode
from repro.net.stack import StackConfig
from repro.obs import Observability
from repro.radio.medium import Medium
from repro.radio.propagation import UnitDiskModel
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceLog
from tests.conftest import build_grid_network, build_line_network, constant_field


def trees_of(obs, category):
    tracer = obs.spans
    return [tree for tree in map(tracer.tree, tracer.trace_ids())
            if tree.span.category == category]


def gossiping_grid(side=3, seed=70, period=10.0):
    sim, log, stacks = build_grid_network(side, seed=seed)
    obs = Observability().attach(log)
    sim.run(until=120.0)
    replicas = [CrdtReplica(s.node_id, GCounter(s.node_id)) for s in stacks]
    replicators = [
        NetworkReplicator(s, r, AntiEntropyConfig(period_s=period))
        for s, r in zip(stacks, replicas)
    ]
    for replicator in replicators:
        replicator.start()
    return sim, obs, stacks, replicas, replicators


class TestAntiEntropySpans:
    def test_round_tree_reaches_receivers(self):
        sim, obs, stacks, replicas, replicators = gossiping_grid()
        replicas[0].mutate(lambda s: s.increment())
        replicators[0].notify_local_update()
        sim.run(until=sim.now + 120.0)
        trees = trees_of(obs, "crdt.anti_entropy")
        assert trees
        merged = [tree for tree in trees
                  if any(n.span.category == "crdt.merge" for n in tree.walk())]
        assert merged, "no round recorded a receiver-side merge"
        tree = merged[0]
        # The merge event happened at a *different* node than the sender.
        merge_nodes = {node.span.node for node in tree.walk()
                       if node.span.category == "crdt.merge"}
        assert merge_nodes and tree.span.node not in merge_nodes
        assert "mac.job" in {n.span.category for n in tree.walk()}

    def test_round_span_records_digest_size(self):
        sim, obs, stacks, replicas, replicators = gossiping_grid()
        sim.run(until=sim.now + 60.0)
        tree = trees_of(obs, "crdt.anti_entropy")[0]
        assert tree.span.data["bytes"] > 0
        assert tree.span.end is not None

    def test_merge_lag_histogram_and_staleness(self):
        sim, obs, stacks, replicas, replicators = gossiping_grid()
        replicas[0].mutate(lambda s: s.increment())
        replicators[0].notify_local_update()
        mark = sim.now
        sim.run(until=sim.now + 120.0)
        assert obs.registry.snapshot().histogram_values("crdt.merge_lag_s")
        # Every replicator converged, so staleness counts from its last
        # incorporated change — bounded by the window we just ran.
        for replicator in replicators:
            assert 0.0 <= replicator.staleness(sim.now) <= sim.now
        assert replicators[0].staleness(sim.now) <= sim.now - mark

    def test_gossip_counters(self):
        sim, obs, stacks, replicas, replicators = gossiping_grid()
        sim.run(until=sim.now + 60.0)
        snapshot = obs.registry.snapshot()
        assert snapshot.counter_total("crdt.gossip") > 0
        assert snapshot.counter_total("crdt.gossip_bytes") > 0


def device_line(n=3, seed=80):
    sim = Simulator(seed=seed)
    log = TraceLog()
    obs = Observability().attach(log)
    medium = Medium(sim, UnitDiskModel(radius_m=25.0), log)
    config = StackConfig(mac="csma")
    nodes = []
    for i in range(n):
        node = DeviceNode(medium, i, (i * 20.0, 0.0), config,
                          is_root=(i == 0))
        node.add_sensor("temp", constant_field(20.0))
        node.start()
        nodes.append(node)
    sim.run(until=240.0)
    return sim, obs, nodes


class TestAggregationSpans:
    def run_query(self, epochs=2, epoch_s=30.0):
        sim, obs, nodes = device_line()
        services = [AggregationService(node) for node in nodes]
        results = []
        services[0].run_query("temp", "avg", epoch_s=epoch_s,
                              lifetime_epochs=epochs,
                              on_result=results.append)
        sim.run(until=sim.now + epoch_s * (epochs + 2))
        return obs, results

    def test_epoch_span_spans_the_epoch_with_contributions(self):
        obs, results = self.run_query()
        assert results
        epochs = trees_of(obs, "agg.epoch")
        assert epochs
        span = epochs[0].span
        assert span.node == 0
        assert span.data["contributions"] >= 1
        assert span.end is not None and span.end - span.start > 0

    def test_partial_span_carries_the_fold_and_the_mac_work(self):
        obs, results = self.run_query()
        partials = trees_of(obs, "agg.partial")
        assert partials
        folded = [tree for tree in partials
                  if any(n.span.category == "agg.fold" for n in tree.walk())]
        assert folded, "no partial reached a parent's fold"
        tree = folded[0]
        fold_nodes = {node.span.node for node in tree.walk()
                      if node.span.category == "agg.fold"}
        assert fold_nodes and tree.span.node not in fold_nodes

    def test_aggregation_counters_and_histogram(self):
        obs, results = self.run_query()
        snapshot = obs.registry.snapshot()
        assert snapshot.counter_total("agg.announce") > 0
        assert snapshot.counter_total("agg.partial") > 0
        assert snapshot.counter_total("agg.fold") > 0
        assert snapshot.counter_total("agg.result") == len(results)
        assert snapshot.histogram_values("agg.contributions")


class TestFragmentSpans:
    def test_fragmented_datagram_grows_per_fragment_spans(self):
        sim, log, stacks = build_line_network(2, seed=33)
        obs = Observability().attach(log)
        sim.run(until=240.0)
        delivered = []
        stacks[0].bind(9, lambda datagram: delivered.append(datagram))
        stacks[1].send_datagram(0, 9, payload="bulk", payload_bytes=300)
        sim.run(until=sim.now + 60.0)
        assert delivered
        fragments = [span for span in obs.spans.spans.values()
                     if span.category == "net.fragment"]
        assert len(fragments) >= 3  # 300 B over a ~100 B MTU
        indices = sorted(span.data["index"] for span in fragments)
        total = fragments[0].data["of"]
        assert indices == list(range(total))
        # Each fragment sits beneath the hop span inside the bulk
        # datagram's trace and closes when its MAC job completes.
        trace_ids = {span.trace_id for span in fragments}
        assert len(trace_ids) == 1
        categories = {span.category
                      for span in obs.spans.spans.values()
                      if span.trace_id == fragments[0].trace_id}
        assert {"net.datagram", "net.hop", "net.fragment",
                "mac.job"} <= categories
        for span in fragments:
            assert span.parent_id is not None
            assert span.end is not None
        assert obs.registry.snapshot().counter_total("frag.fragments") == len(fragments)
