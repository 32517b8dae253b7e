"""CoAP + fragmentation over a duty-cycled multihop network.

The hardest composition in the stack: a confirmable CoAP exchange whose
response exceeds the 802.15.4 frame MTU, carried hop-by-hop over LPL
rendezvous with per-hop fragmentation/reassembly — the full cost chain
a real constrained deployment pays for one "big" read.
"""

import pytest

from repro.middleware.coap import client as coap_client
from repro.middleware.coap.client import CoapClient
from repro.middleware.coap.codes import CoapCode
from repro.middleware.coap.resource import CallbackResource
from repro.middleware.coap.server import CoapServer
from repro.middleware.coap import transport as coap_transport
from repro.middleware.coap.transport import CoapTransport
from repro.net.mac.lpl import LplConfig
from repro.net.rpl.dodag import RplConfig
from repro.net.stack import StackConfig
from tests.conftest import build_line_network

BIG_PAYLOAD_BYTES = 320


def lpl_line(n=4, seed=260, phase_lock=True):
    config = StackConfig(
        mac="lpl",
        mac_config=LplConfig(wake_interval_s=0.5, phase_lock=phase_lock),
        rpl=RplConfig(trickle_imin_s=4.0, trickle_doublings=7, trickle_k=3),
    )
    sim, trace, stacks = build_line_network(n, config=config, seed=seed)
    sim.run(until=300.0 + 120.0 * n)
    from repro.net.rpl.dodag import RplState

    assert all(s.rpl.state is RplState.JOINED for s in stacks[1:])
    return sim, trace, stacks


class TestCoapOverLpl:
    @pytest.fixture(autouse=True)
    def patient_acks(self, monkeypatch):
        """A CON's first ACK timeout spans several LPL rendezvous, and a
        request gets 120 s end to end."""
        monkeypatch.setattr(coap_transport, "ACK_TIMEOUT_S", 8.0)
        monkeypatch.setattr(coap_client, "REQUEST_TIMEOUT_S", 120.0)

    def test_large_response_crosses_duty_cycled_multihop(self):
        sim, trace, stacks = lpl_line()
        server = CoapServer(CoapTransport(stacks[3]))
        server.add_resource(CallbackResource(
            "/logs/dump", on_get=lambda: ("x" * 16, BIG_PAYLOAD_BYTES)))
        client = CoapClient(CoapTransport(stacks[0]))
        responses = []
        client.get(3, "/logs/dump", responses.append)
        sim.run(until=sim.now + 120.0)
        assert responses and responses[0] is not None
        assert responses[0].code is CoapCode.CONTENT
        # The response really was fragmented along the way.
        assert stacks[3].frag.packets_fragmented >= 1
        assert stacks[0].frag.reassemblies >= 1
        # And intermediate hops reassembled + re-fragmented.
        assert stacks[1].frag.reassemblies >= 1

    def test_latency_reflects_duty_cycle_rendezvous(self):
        sim, trace, stacks = lpl_line(seed=261)
        server = CoapServer(CoapTransport(stacks[3]))
        server.add_resource(CallbackResource("/v", on_get=lambda: (1, 4)))
        client = CoapClient(CoapTransport(stacks[0]))
        issued = sim.now
        latencies = []
        client.get(3, "/v", lambda r: latencies.append(sim.now - issued))
        sim.run(until=sim.now + 120.0)
        assert latencies
        # 3 hops out + 3 hops back over W=0.5 LPL: at least ~3 rendezvous
        # (phase lock shortens airtime, not the receiver's wake wait).
        assert latencies[0] > 0.3
