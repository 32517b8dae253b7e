"""Replay attacks and the monotonic-sequence defense."""

import pytest

from repro.security.auth import FrameAuthenticator
from repro.security.keys import KeyStore
from tests.conftest import ReplayAttacker, build_line_network

KEY = 0xA11CE


def secured_line(n=3, seed=230):
    sim, trace, stacks = build_line_network(n, seed=seed)
    authenticators = []
    for stack in stacks:
        keystore = KeyStore(stack.node_id)
        keystore.provision_network_key(KEY)
        authenticator = FrameAuthenticator(stack.mac, keystore)
        authenticator.enable()
        authenticators.append(authenticator)
    sim.run(until=150.0)
    return sim, trace, stacks, authenticators


class TestReplay:
    def test_sniffer_captures_victim_frames(self):
        sim, trace, stacks, auths = secured_line()
        attacker = ReplayAttacker(stacks[0].medium, 555, (25.0, 5.0))
        attacker.capture_for(2)
        stacks[2].bind(9, lambda d: None)
        stacks[1].send_datagram(2, 9, "cmd", 8)
        sim.run(until=sim.now + 60.0)
        assert len(attacker.captured) >= 1

    def test_replayed_frame_rejected_as_replay(self, recorded):
        sim, trace, stacks, auths = secured_line()
        got = []
        stacks[2].bind(9, lambda d: got.append(d.payload))
        attacker = ReplayAttacker(stacks[0].medium, 555, (25.0, 5.0))
        attacker.capture_for(2)
        stacks[1].send_datagram(2, 9, "open-once", 8)
        sim.run(until=sim.now + 60.0)
        assert got == ["open-once"]
        for i in range(3):
            sim.schedule(3.0 * i, lambda: attacker.replay())
        sim.run(until=sim.now + 30.0)
        # The command was applied exactly once; replays died at the MAC.
        assert got == ["open-once"]
        assert auths[2].replays_rejected >= 1
        replay_rejections = [
            r for r in recorded(trace) if r.category == "security.rejected"
            and r.node == 2 and r.data.get("reason") == "replay"
        ]
        assert replay_rejections

    def test_without_antireplay_the_frame_would_verify(self):
        # The tag itself is valid: only the sequence check stops it.
        sim, trace, stacks, auths = secured_line()
        attacker = ReplayAttacker(stacks[0].medium, 555, (25.0, 5.0))
        attacker.capture_for(2)
        stacks[2].bind(9, lambda d: None)
        stacks[1].send_datagram(2, 9, "cmd", 8)
        sim.run(until=sim.now + 60.0)
        frame = attacker.captured[0]
        from repro.security.auth import compute_tag

        assert frame.payload.tag == compute_tag(KEY, frame.src, frame.seq)

    def test_fresh_traffic_still_flows_after_replays(self):
        sim, trace, stacks, auths = secured_line()
        got = []
        stacks[2].bind(9, lambda d: got.append(d.payload))
        attacker = ReplayAttacker(stacks[0].medium, 555, (25.0, 5.0))
        attacker.capture_for(2)
        stacks[1].send_datagram(2, 9, "first", 8)
        sim.run(until=sim.now + 60.0)
        attacker.replay()
        sim.run(until=sim.now + 10.0)
        stacks[1].send_datagram(2, 9, "second", 8)
        sim.run(until=sim.now + 60.0)
        assert got == ["first", "second"]

    def test_replay_with_nothing_captured_is_noop(self):
        sim, trace, stacks, auths = secured_line()
        attacker = ReplayAttacker(stacks[0].medium, 555, (25.0, 5.0))
        assert attacker.replay() is False
