"""End-to-end stack behaviour: sockets, routing, forwarding, faults."""

import pytest

from repro.net import packet as wire
from repro.net.mac.csma import CsmaConfig
from repro.net.mac.lpl import LplConfig
from repro.net.mac.tsch import TschConfig
from repro.net.stack import NetworkStack, StackConfig
from tests.conftest import build_grid_network, build_line_network


class TestSockets:
    def test_bind_and_deliver(self):
        sim, trace, stacks = build_line_network(3, seed=30)
        sim.run(until=60.0)
        got = []
        stacks[0].bind(7, lambda d: got.append((d.src, d.payload)))
        stacks[2].send_datagram(0, 7, "up", 20)
        sim.run(until=65.0)
        assert got == [(2, "up")]

    def test_double_bind_rejected(self):
        sim, trace, stacks = build_line_network(2, seed=30)
        stacks[0].bind(7, lambda d: None)
        with pytest.raises(ValueError):
            stacks[0].bind(7, lambda d: None)

    def test_unbound_port_drops_silently(self, recorded):
        sim, trace, stacks = build_line_network(3, seed=30)
        sim.run(until=60.0)
        stacks[2].send_datagram(0, 42, "x", 20)
        sim.run(until=65.0)  # no handler: no crash, delivery still traced
        arrivals = [r for r in recorded(trace) if r.category == "net.delivered"
                    and r.node == 0 and r.data["port"] == 42]
        assert len(arrivals) == 1

    def test_local_delivery_loops_back(self):
        sim, trace, stacks = build_line_network(2, seed=30)
        sim.run(until=60.0)
        got = []
        stacks[0].bind(9, lambda d: got.append(d.payload))
        stacks[0].send_datagram(0, 9, "self", 4)
        sim.run(until=61.0)
        assert got == ["self"]


class TestRouting:
    def test_upward_multihop(self, recorded):
        sim, trace, stacks = build_line_network(6, seed=31)
        sim.run(until=120.0)
        got = []
        stacks[0].bind(7, lambda d: got.append(d.src))
        stacks[5].send_datagram(0, 7, "x", 20)
        sim.run(until=130.0)
        assert got == [5]
        hops = [r.data["hops"] for r in recorded(trace)
                if r.category == "net.delivered"
                and r.node == 0 and r.data["port"] == 7]
        assert hops == [5]

    def test_downward_source_routing(self):
        sim, trace, stacks = build_line_network(5, seed=31)
        sim.run(until=300.0)  # DAOs must land first
        got = []
        stacks[4].bind(8, lambda d: got.append(d.payload))
        stacks[0].send_datagram(4, 8, "cmd", 10)
        sim.run(until=310.0)
        assert got == ["cmd"]

    def test_point_to_point_via_root(self):
        sim, trace, stacks = build_line_network(5, seed=32)
        sim.run(until=300.0)
        got = []
        stacks[4].bind(8, lambda d: got.append((d.src, d.payload)))
        stacks[1].send_datagram(4, 8, "p2p", 10)
        sim.run(until=320.0)
        assert got == [(1, "p2p")]

    def test_no_route_drops_and_counts(self):
        sim, trace, stacks = build_line_network(3, seed=33)
        # Before convergence node 2 has no parent.
        outcome = []
        stacks[2].send_datagram(0, 7, "x", 20, done=outcome.append)
        assert outcome == [False]
        assert stacks[2].stats.datagrams_dropped_no_route == 1

    def test_ttl_protects_against_loops(self, monkeypatch):
        monkeypatch.setattr(wire, "DEFAULT_TTL", 2)
        sim, trace, stacks = build_line_network(4, seed=33)
        sim.run(until=120.0)
        got = []
        stacks[0].bind(7, lambda d: got.append(d))
        before = sum(s.stats.datagrams_dropped_ttl for s in stacks)
        stacks[3].send_datagram(0, 7, "x", 20)
        sim.run(until=130.0)
        # 3 hops needed, TTL 2: dropped en route, never delivered.
        assert sum(s.stats.datagrams_dropped_ttl for s in stacks) > before
        assert got == []

    def test_local_broadcast_reaches_neighbors_only(self):
        sim, trace, stacks = build_line_network(4, seed=34)
        sim.run(until=60.0)
        got = []
        for stack in stacks:
            stack.bind(11, (lambda nid: lambda d: got.append(nid))(stack.node_id))
        stacks[1].send_local_broadcast(11, "hello", 10)
        sim.run(until=62.0)
        assert sorted(got) == [0, 2]  # one-hop neighbors of 1


class TestFaults:
    def test_fail_silences_node(self):
        sim, trace, stacks = build_line_network(3, seed=35)
        sim.run(until=60.0)
        stacks[2].fail()
        stacks[0].bind(7, lambda d: got.append(d))
        got = []
        stacks[2].send_datagram(0, 7, "x", 20)
        sim.run(until=120.0)
        assert got == []
        assert not stacks[2].alive

    def test_recover_restores_service(self):
        sim, trace, stacks = build_line_network(3, seed=35)
        sim.run(until=60.0)
        stacks[2].fail()
        sim.run(until=120.0)
        stacks[2].recover()
        sim.run(until=400.0)
        got = []
        stacks[0].bind(7, lambda d: got.append(d.src))
        stacks[2].send_datagram(0, 7, "back", 20)
        sim.run(until=420.0)
        assert got == [2]

    def test_fail_is_idempotent(self):
        sim, trace, stacks = build_line_network(2, seed=35)
        stacks[1].fail()
        stacks[1].fail()
        stacks[1].recover()
        stacks[1].recover()
        assert stacks[1].alive


class TestConfig:
    def test_unknown_mac_rejected(self):
        with pytest.raises(ValueError, match=r"StackConfig\.mac: unknown MAC"):
            StackConfig(mac="tdma-magic")

    def test_unknown_objective_rejected(self):
        with pytest.raises(ValueError, match=r"StackConfig\.objective: unknown"):
            StackConfig(objective="fancy")

    @pytest.mark.parametrize("kwargs, message", [
        ({"mac": "lpl", "mac_config": CsmaConfig()},
         r"StackConfig\.mac_config: mac='lpl' takes a LplConfig, not CsmaConfig"),
        ({"mac": "csma", "mac_config": TschConfig()},
         r"StackConfig\.mac_config: mac='csma' takes a CsmaConfig, not TschConfig"),
        ({"mac": "tsch", "mac_config": LplConfig()},
         r"StackConfig\.mac_config: mac='tsch' takes a TschConfig, not LplConfig"),
        ({"mac_config": {"max_retries": 2}},
         r"StackConfig\.mac_config: mac='csma' takes a CsmaConfig, not dict"),
        ({"channel": 5}, r"StackConfig\.channel: 5 is not"),
        ({"upward_retries": -1}, r"StackConfig\.upward_retries: must be >= 0"),
    ], ids=["lpl-csma-config", "csma-tsch-config", "tsch-lpl-config",
            "dict-config", "channel-5", "negative-retries"])
    def test_mismatch_fails_at_construction(self, kwargs, message):
        # Each of these used to build, then fail mid-run with an
        # AttributeError, fail at build with one, or run silently.
        with pytest.raises(ValueError, match=message):
            StackConfig(**kwargs)

    def test_of0_network_still_converges(self):
        sim, trace, stacks = build_line_network(
            4, seed=37, config=StackConfig(mac="csma", objective="of0"),
        )
        sim.run(until=180.0)
        from repro.net.rpl.dodag import RplState

        assert all(s.rpl.state is RplState.JOINED for s in stacks[1:])
