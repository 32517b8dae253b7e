"""Finer-grained RPL conformance behaviours."""

import pytest

from repro.net.rpl import dodag
from repro.net.rpl.dodag import RplConfig, RplState
from repro.net.rpl.messages import DaoMessage, DioMessage, DisMessage
from repro.net.rpl.objective import INFINITE_RANK, ROOT_RANK
from repro.net.stack import StackConfig
from tests.conftest import build_line_network, bump_dodag_version


class TestDisBehaviour:
    def test_detached_node_solicits_with_dis(self, recorded):
        # A node booted in isolation keeps sending DIS.
        sim, trace, stacks = build_line_network(1, seed=270)
        lone = stacks[0]
        # Rebuild as a non-root: single non-root node, no DODAG around.
        from repro.net.stack import NetworkStack

        orphan = NetworkStack(lone.medium, 99, (100.0, 0.0),
                              StackConfig(mac="csma"))
        orphan.start()
        sim.run(until=120.0)
        assert orphan.rpl.state is RplState.DETACHED
        dis_count = sum(
            1 for r in recorded(trace) if r.category == "radio.tx"
            and r.node == 99
        )
        assert dis_count >= 3  # periodic solicitation kept running

    def test_dis_triggers_neighbor_dio_burst(self):
        sim, trace, stacks = build_line_network(3, seed=271)
        sim.run(until=300.0)  # Trickle slowed down by now
        dio_before = stacks[1].rpl.dio_sent
        stacks[1].rpl.handle_dis(src=99)
        sim.run(until=sim.now + 5.0)
        assert stacks[1].rpl.dio_sent > dio_before


class TestVersioning:
    def test_old_version_dio_does_not_regress(self):
        sim, trace, stacks = build_line_network(3, seed=272)
        sim.run(until=120.0)
        bump_dodag_version(stacks[0].rpl)  # version 1
        sim.run(until=400.0)
        node = stacks[2].rpl
        assert node.version == 1
        # A stale version-0 DIO must not drag the node backwards.
        node.handle_dio(7, DioMessage(dodag_id=0, version=0, rank=ROOT_RANK))
        assert node.version == 1
        assert node.preferred_parent != 7

    def test_dao_path_seq_prevents_stale_overwrite(self):
        sim, trace, stacks = build_line_network(2, seed=273)
        sim.run(until=120.0)
        root = stacks[0].rpl
        root.handle_dao(DaoMessage(node=5, parent=3, path_seq=10))
        root.handle_dao(DaoMessage(node=5, parent=9, path_seq=4))  # stale
        assert root.dao_table[5][0] == 3
        root.handle_dao(DaoMessage(node=5, parent=9, path_seq=11))
        assert root.dao_table[5][0] == 9


class TestLoopGuards:
    def test_node_never_picks_higher_ranked_parent(self):
        sim, trace, stacks = build_line_network(4, seed=274)
        sim.run(until=200.0)
        node = stacks[2].rpl
        # Offer a "parent" that advertises a worse rank than ours.
        node.handle_dio(99, DioMessage(dodag_id=0, version=0,
                                       rank=node.rank + 512))
        assert node.preferred_parent != 99

    def test_poisoned_neighbor_not_selected(self):
        sim, trace, stacks = build_line_network(3, seed=275)
        sim.run(until=120.0)
        node = stacks[2].rpl
        node.handle_dio(99, DioMessage(dodag_id=0, version=0,
                                       rank=INFINITE_RANK))
        assert node.preferred_parent != 99

    def test_blacklist_expires(self, monkeypatch):
        monkeypatch.setattr(dodag, "BLACKLIST_S", 30.0)
        config = StackConfig(mac="csma",
                             rpl=RplConfig(parent_fail_threshold=1))
        sim, trace, stacks = build_line_network(3, config=config, seed=276)
        sim.run(until=120.0)
        node = stacks[2].rpl
        parent = node.preferred_parent
        node.link_feedback(parent, False)  # threshold 1: blacklist now
        entry = node.neighbors.get(parent)
        assert entry.blacklisted_until > sim.now
        sim.run(until=sim.now + 120.0)
        # The only viable parent returns after the blacklist expires.
        assert node.state is RplState.JOINED
        assert node.preferred_parent == parent


class TestControlMessageSizes:
    def test_dio_options_add_bytes(self):
        plain = DioMessage(dodag_id=0, version=0, rank=512)
        rich = DioMessage(dodag_id=0, version=0, rank=512,
                          options={"cfrc": object()})
        assert rich.size_bytes > plain.size_bytes

    def test_message_sizes_are_sane(self):
        assert DisMessage().size_bytes < DioMessage(
            dodag_id=0, version=0, rank=0).size_bytes
        assert DaoMessage(node=1, parent=0, path_seq=1).size_bytes <= 24
