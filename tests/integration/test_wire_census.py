"""Census of what crosses the air: every payload is a value.

A frame handed to ``Medium.transmit`` is shared by every receiver, and a
forwarded packet by the hops after it, so nothing it carries may be
written once it is sent (DESIGN.md, "Wire values").  This walks the
``payload``/``inner`` chain of every frame transmitted in every built-in
scenario, a fragmenting CRDT/CoAP run and an authenticated run, and
requires each link of it to be one of:

- a frozen dataclass (RPL, 6P and CoAP messages, the MIC wrapper);
- an immutable builtin;
- one of the write-once envelopes ``conftest.WIRE_TYPES``, which the
  session's tripwire keeps write-once;
- a ``StateCrdt``: allow-listed because ``NetworkReplicator._gossip``
  sends a copy taken at send time, and ``merge`` only reads its
  argument.
"""

import dataclasses
from collections import Counter

import pytest

from repro.app.scenarios import BUILTIN_SCENARIOS
from repro.crdt.base import StateCrdt
from repro.crdt.maps import LWWMap
from repro.crdt.replication import AntiEntropyConfig, CrdtReplica, NetworkReplicator
from repro.middleware.coap.client import CoapClient
from repro.middleware.coap.resource import CallbackResource
from repro.middleware.coap.server import CoapServer
from repro.middleware.coap.transport import CoapTransport
from repro.net.fragmentation import Fragment
from repro.radio.medium import Medium
from repro.security.auth import FrameAuthenticator
from repro.security.keys import KeyStore
from tests.conftest import WIRE_TYPES, build_grid_network, build_line_network

IMMUTABLE_BUILTINS = (type(None), bool, int, float, complex, str, bytes,
                      tuple, frozenset)


def _is_value(kind: type) -> bool:
    return (kind in IMMUTABLE_BUILTINS or kind in WIRE_TYPES
            or issubclass(kind, StateCrdt)
            or (dataclasses.is_dataclass(kind)
                and kind.__dataclass_params__.frozen))


@pytest.fixture
def census(monkeypatch):
    """Counts, by type, every link of every transmitted frame's
    ``payload``/``inner`` chain."""
    seen = Counter()
    transmit = Medium.transmit

    def counting(self, radio, frame, done=None):
        value = frame
        while value is not None:
            seen[type(value)] += 1
            value = getattr(value, "payload", getattr(value, "inner", None))
        return transmit(self, radio, frame, done)

    monkeypatch.setattr(Medium, "transmit", counting)
    return seen


def _assert_all_values(seen):
    assert seen
    assert [kind.__qualname__ for kind in seen if not _is_value(kind)] == []


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_builtin_scenario_sends_only_values(census, name):
    BUILTIN_SCENARIOS[name].run(2018)
    _assert_all_values(census)


def test_fragmenting_crdt_and_coap_run_sends_only_values(census):
    sim, _trace, stacks = build_grid_network(3, seed=7)
    sim.run(until=180.0)
    server = CoapServer(CoapTransport(stacks[8]))
    server.add_resource(CallbackResource("/dump", on_get=lambda: ("x", 320)))
    client = CoapClient(CoapTransport(stacks[0]))
    responses = []
    client.get(8, "/dump", responses.append, timeout_s=60.0)
    replicas = [CrdtReplica(s.node_id, LWWMap(s.node_id)) for s in stacks]
    for stack, replica in zip(stacks, replicas):
        for key in range(12):
            replica.mutate(lambda state, k=key: state.set(
                f"zone/{k}", float(k), sim.now))
        NetworkReplicator(stack, replica,
                          AntiEntropyConfig(period_s=10.0)).start()
    sim.run(until=sim.now + 60.0)
    assert responses and responses[0] is not None
    assert census[Fragment] and census[LWWMap]
    _assert_all_values(census)


def test_authenticated_run_sends_only_values(census):
    sim, _trace, stacks = build_line_network(4, seed=100)
    for stack in stacks:
        keystore = KeyStore(stack.node_id)
        keystore.provision_network_key(0xDEADBEEF)
        FrameAuthenticator(stack.mac, keystore).enable()
    sim.run(until=180.0)
    got = []
    stacks[0].bind(7, got.append)
    stacks[3].send_datagram(0, 7, "reading", 20)
    sim.run(until=sim.now + 30.0)
    assert got
    assert any(kind.__name__ == "_Authenticated" for kind in census)
    _assert_all_values(census)
