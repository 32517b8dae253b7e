"""6LoWPAN-style fragmentation and hop-by-hop reassembly."""

import pytest

from repro.net.fragmentation import (
    FRAME_MTU_BYTES,
    FragmentationAdapter,
)
from tests.conftest import build_line_network


class TestPlan:
    def test_small_payload_single_chunk(self):
        sim, trace, stacks = build_line_network(2, seed=220)
        frag = stacks[0].frag
        assert not frag.needs_fragmentation(FRAME_MTU_BYTES)
        assert frag.needs_fragmentation(FRAME_MTU_BYTES + 1)

    def test_plan_covers_total(self):
        sim, trace, stacks = build_line_network(2, seed=220)
        frag = stacks[0].frag
        for total in (103, 200, 500, 97 * 3):
            sizes = frag.plan(total)
            assert sum(sizes) == total
            assert all(size <= FRAME_MTU_BYTES for size in sizes)

    def test_plan_rejects_nonpositive(self):
        sim, trace, stacks = build_line_network(2, seed=220)
        with pytest.raises(ValueError):
            stacks[0].frag.plan(0)


class TestEndToEnd:
    def test_large_datagram_crosses_multihop(self):
        sim, trace, stacks = build_line_network(4, seed=221)
        sim.run(until=180.0)
        got = []
        stacks[0].bind(9, lambda d: got.append((d.payload, d.payload_bytes)))
        stacks[3].send_datagram(0, 9, "big-blob", 400)
        sim.run(until=sim.now + 30.0)
        assert got and got[0][0] == "big-blob"
        # Every hop fragmented and reassembled.
        assert stacks[3].frag.packets_fragmented == 1
        assert stacks[3].frag.fragments_sent >= 4
        assert stacks[0].frag.reassemblies == 1
        assert stacks[2].frag.reassemblies >= 1  # intermediate hop too

    def test_small_datagram_not_fragmented(self):
        sim, trace, stacks = build_line_network(3, seed=222)
        sim.run(until=120.0)
        got = []
        stacks[0].bind(9, lambda d: got.append(d.payload))
        stacks[2].send_datagram(0, 9, "tiny", 20)
        sim.run(until=sim.now + 20.0)
        assert got == ["tiny"]
        assert stacks[2].frag.packets_fragmented == 0

    def test_large_local_broadcast(self):
        sim, trace, stacks = build_line_network(3, seed=223)
        sim.run(until=120.0)
        got = []
        stacks[1].bind(11, lambda d: got.append(d.payload_bytes))
        stacks[0].send_local_broadcast(11, "state", 300)
        sim.run(until=sim.now + 20.0)
        # NET_HEADER not charged on link-local datagrams; total is the
        # datagram size (UDP header + payload).
        assert got and got[0] >= 300

    def test_lost_fragment_drops_whole_packet(self):
        sim, trace, stacks = build_line_network(2, seed=224)
        sim.run(until=60.0)
        got = []
        stacks[0].bind(9, lambda d: got.append(1))
        # Cut the link mid-transfer: arm a one-way filter after the
        # first fragment's airtime.
        medium = stacks[0].medium

        def cut():
            medium.set_link_filter(lambda a, b: True)

        stacks[1].send_datagram(0, 9, "doomed", 400)
        sim.schedule(0.006, cut)
        sim.run(until=sim.now + 30.0)
        medium.set_link_filter(None)
        assert got == []
        # The receiver's partial buffer expires.
        sim.run(until=sim.now + 30.0)
        assert len(stacks[0].frag._buffers) == 0
        assert stacks[0].frag.reassembly_failures >= 1

    def test_interleaved_transfers_from_two_senders(self):
        sim, trace, stacks = build_line_network(3, seed=225, radius_m=50.0)
        sim.run(until=120.0)
        got = []
        stacks[0].bind(9, lambda d: got.append(d.payload))
        stacks[1].send_datagram(0, 9, "from-1", 300)
        stacks[2].send_datagram(0, 9, "from-2", 300)
        sim.run(until=sim.now + 30.0)
        assert sorted(got) == ["from-1", "from-2"]
