"""Acceptance: a delivered CoAP request reconstructs as one span tree
crossing every layer — app (CoAP), network, per-hop forwarding, MAC,
and radio — over a real multihop path."""

from repro.middleware.coap.client import CoapClient
from repro.middleware.coap.resource import CallbackResource
from repro.middleware.coap.server import CoapServer
from repro.middleware.coap.transport import CoapTransport
from repro.obs import Observability
from tests.conftest import build_line_network


def instrumented_line(n=3, seed=77):
    """A converged line network with the observability bundle attached
    *before* traffic starts, plus a CoAP server at the root and a CoAP
    client at the far leaf (a >= 2-hop upward path)."""
    sim, log, stacks = build_line_network(n, seed=seed)
    obs = Observability().attach(log)
    sim.run(until=120.0 + 60.0 * n)  # formation + DAOs
    server = CoapServer(CoapTransport(stacks[0]))
    server.add_resource(CallbackResource("/temp", on_get=lambda: (21.5, 4)))
    client = CoapClient(CoapTransport(stacks[-1]))
    return sim, obs, client


def request_roundtrip(n=3, seed=77):
    sim, obs, client = instrumented_line(n, seed)
    responses = []
    client.get(0, "/temp", responses.append)
    sim.run(until=sim.now + 30.0)
    assert responses and responses[0] is not None
    return obs


def coap_request_trees(obs):
    tracer = obs.spans
    return [tree for tree in map(tracer.tree, tracer.trace_ids())
            if tree.span.category == "coap.request"]


class TestLifecycleTree:
    def test_delivered_request_spans_at_least_four_layers(self):
        obs = request_roundtrip()
        trees = coap_request_trees(obs)
        assert len(trees) == 1
        tree = trees[0]
        # coap.request -> net.datagram -> net.hop -> mac.job ->
        # radio.airtime -> radio.rx: six levels, >= 4 distinct layers.
        def depth(node):
            return 1 + max((depth(child) for child in node.children),
                           default=0)

        assert depth(tree) >= 4
        categories = {node.span.category for node in tree.walk()}
        assert {"coap.request", "net.datagram", "net.hop", "mac.job",
                "radio.airtime"} <= categories
        layers = {category.split(".")[0] for category in categories}
        assert len(layers) >= 4  # coap, net, mac, radio

    def test_each_forwarding_hop_gets_its_own_span(self):
        obs = request_roundtrip(n=3)
        tree = coap_request_trees(obs)[0]
        request_datagram = tree.children[0]
        assert request_datagram.span.category == "net.datagram"
        hops = [child for child in request_datagram.children
                if child.span.category == "net.hop"]
        # Leaf 2 -> forwarder 1 -> root 0: one hop span per transmission
        # attempt, recorded at the node that made the attempt.
        assert len(hops) >= 2
        assert [hop.span.node for hop in hops[:2]] == [2, 1]

    def test_request_span_closes_on_response_with_outcome(self):
        obs = request_roundtrip()
        span = coap_request_trees(obs)[0].span
        assert span.end is not None
        assert span.data["ok"] is True
        assert span.data["path"] == "/temp"

    def test_delivered_datagram_records_latency_and_hops(self):
        obs = request_roundtrip(n=3)
        tree = coap_request_trees(obs)[0]
        datagram_span = tree.children[0].span
        assert datagram_span.data["delivered"] is True
        assert datagram_span.data["hops"] == 2
        assert datagram_span.data["latency"] > 0.0

    def test_registry_counts_the_journey(self):
        obs = request_roundtrip()
        snapshot = obs.registry.snapshot()
        assert snapshot.counter_total("coap.request") == 1
        assert snapshot.counter_total("coap.response") == 1
        # Request datagram + response datagram, both delivered.
        assert snapshot.counter_total("net.sent") >= 2
        assert snapshot.counter_total("net.delivered") >= 2
        assert snapshot.counter_total("net.forwarded") >= 2
        assert snapshot.counter_total("mac.tx") >= 4
        assert snapshot.histogram_values("net.latency_s")  # histogram populated

    def test_same_seed_reproduces_identical_spans(self):
        def fingerprint():
            obs = request_roundtrip(seed=91)
            return [
                (s.span_id, s.trace_id, s.parent_id, s.category, s.node,
                 s.start, s.end)
                for s in obs.spans.spans.values()
            ]

        first, second = fingerprint(), fingerprint()
        assert first == second
        assert len(first) > 10

    def test_without_observability_nothing_is_recorded(self):
        sim, log, stacks = build_line_network(3, seed=77)
        sim.run(until=300.0)
        server = CoapServer(CoapTransport(stacks[0]))
        server.add_resource(CallbackResource("/temp", on_get=lambda: (1, 4)))
        client = CoapClient(CoapTransport(stacks[-1]))
        responses = []
        client.get(0, "/temp", responses.append)
        sim.run(until=sim.now + 30.0)
        assert responses and responses[0] is not None
        assert log.obs is None  # traffic flowed, no obs state anywhere
