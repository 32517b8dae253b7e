"""A header is written once: each hop sends its own ``NetPacket``.

A link-layer retry can duplicate a copy that already got through (the
data frame arrived, its ACK did not).  Each copy must then carry its own
true header: the forwarders of the first copy and the retry of the
second never share an object (DESIGN.md, "Wire values").
"""

from repro.net.packet import FrameKind, NetPacket
from repro.net.stack import NetworkStack, StackConfig
from tests.conftest import build_grid_network, build_line_network


def _drop_first_job_acks(stack, marker):
    """Node ``stack`` hears none of the ACKs of the first MAC job that
    carries the datagram ``marker``, so that job fails after its data
    frame was delivered and ``_route`` retries the hop."""
    mac, radio = stack.mac, stack.radio
    hear = radio.on_receive
    first_seq = []

    def lossy(phy, rssi_dbm):
        frame, job = phy.payload, mac._in_flight
        if (frame.kind is FrameKind.ACK and job is not None
                and isinstance(job.payload, NetPacket)
                and job.payload.payload.payload == marker):
            if not first_seq:
                first_seq.append(job.seq)
            if job.seq == first_seq[0]:
                return
        hear(phy, rssi_dbm)

    radio.on_receive = lossy
    return first_seq


def test_a_retried_hop_delivers_two_copies_with_their_own_hops(recorded):
    sim, trace, stacks = build_line_network(4, seed=31)
    sim.run(until=120.0)
    assert [s.rpl.preferred_parent for s in stacks[1:]] == [0, 1, 2]
    lost = _drop_first_job_acks(stacks[3], "probe")
    got = []
    stacks[0].bind(7, lambda d: got.append(d.payload))
    stacks[3].send_datagram(0, 7, "probe", 20)
    sim.run(until=140.0)
    assert lost, "the first hop's ACKs were never suppressed"
    # Both copies crossed 3 -> 2 -> 1 -> 0; neither inherits the
    # other's hop count.
    assert got == ["probe", "probe"]
    hops = [r.data["hops"] for r in recorded(trace)
            if r.category == "net.delivered" and r.data["port"] == 7]
    assert hops == [3, 3]


def test_without_retries_no_packet_is_handled_twice(monkeypatch):
    """With ``upward_retries=0`` only the MAC retransmits, and it dedups
    per frame: every (packet, node) pair is handled at most once."""
    handled = []
    handle = NetworkStack._handle_packet

    def counting(self, packet):
        handled.append((packet.packet_id, self.node_id))
        handle(self, packet)

    monkeypatch.setattr(NetworkStack, "_handle_packet", counting)
    sim, _trace, stacks = build_grid_network(
        8, seed=2018, config=StackConfig(upward_retries=0))
    sim.run(until=240.0)
    for stack in stacks:
        stack.bind(7, lambda d: None)
    for round_ in range(20):
        for stack in stacks[1:]:
            sim.schedule(round_ * 5.0 + stack.node_id * 0.07,
                         lambda s=stack: s.send_datagram(0, 7, "x", 20))
    sim.run(until=sim.now + 110.0)
    assert len(handled) > 5000
    assert len(set(handled)) == len(handled)
