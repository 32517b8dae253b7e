"""Packet format size accounting."""

from repro.net.packet import (
    ACK_SIZE_BYTES,
    BROADCAST,
    Datagram,
    FrameKind,
    MAC_HEADER_BYTES,
    MacFrame,
    NET_HEADER_BYTES,
    NetPacket,
    UDP_HEADER_BYTES,
)
from repro.sim.kernel import Simulator


class TestMacFrame:
    def test_data_frame_size_includes_header_and_payload(self):
        frame = MacFrame(FrameKind.DATA, src=1, dst=2, seq=1, payload_bytes=20)
        assert frame.size_bytes == MAC_HEADER_BYTES + 20

    def test_auth_bytes_add_to_size(self):
        frame = MacFrame(FrameKind.DATA, src=1, dst=2, seq=1,
                         payload_bytes=20, auth_bytes=4)
        assert frame.size_bytes == MAC_HEADER_BYTES + 24

    def test_ack_frame_is_small_and_fixed(self):
        ack = MacFrame(FrameKind.ACK, src=1, dst=2, seq=9, payload_bytes=999)
        assert ack.size_bytes == ACK_SIZE_BYTES

    def test_beacon_is_header_only(self):
        beacon = MacFrame(FrameKind.BEACON, src=1, dst=BROADCAST, seq=0)
        assert beacon.size_bytes == MAC_HEADER_BYTES


class TestNetPacket:
    def test_size_includes_net_header(self):
        packet = NetPacket(src=1, dst=2, payload="x", payload_bytes=30)
        assert packet.size_bytes == NET_HEADER_BYTES + 30

    def test_source_route_charges_per_hop(self):
        plain = NetPacket(src=1, dst=2, payload="x", payload_bytes=30)
        routed = NetPacket(src=1, dst=2, payload="x", payload_bytes=30,
                           source_route=(3, 4, 5))
        assert routed.size_bytes == plain.size_bytes + 6

    def test_packet_ids_are_unique(self, sim):
        a = NetPacket(src=1, dst=2, payload=None, payload_bytes=0,
                      packet_id=sim.next_id("net.seq"))
        b = NetPacket(src=1, dst=2, payload=None, payload_bytes=0,
                      packet_id=sim.next_id("net.seq"))
        assert a.packet_id != b.packet_id


class TestDatagram:
    def test_size_includes_udp_header(self):
        datagram = Datagram(src=1, src_port=1, dst=2, dst_port=7,
                            payload="x", payload_bytes=12)
        assert datagram.size_bytes == UDP_HEADER_BYTES + 12


def test_next_seq_monotone(sim):
    a, b = sim.next_id("net.seq"), sim.next_id("net.seq")
    assert (a, b) == (1, 2)
    # Id spaces are independent, and belong to the run: the next
    # simulator in this process numbers from 1 again.
    assert sim.next_id("frag.tag") == 1
    assert Simulator(seed=9).next_id("net.seq") == 1
