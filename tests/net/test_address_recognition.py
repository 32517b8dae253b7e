"""Address recognition at the radio.

A MAC's radio recognises its own id and the broadcast address
(``Radio.rx_addresses``): a frame addressed elsewhere is received and
counted like any other — ``frames_received``, the ``radio.rx`` counter —
but never handed up to the MAC.  A radio with no set (a sniffer, a bare
radio) is handed every frame.
"""

from repro.net.mac.csma import CsmaMac
from repro.net.packet import BROADCAST, FrameKind, MacFrame
from repro.radio.medium import Frame, Medium, Radio
from repro.radio.propagation import UnitDiskModel
from repro.sim.trace import TraceLog


def build(sim):
    """Three CSMA nodes and a listening bare radio, all in range."""
    trace = TraceLog()
    medium = Medium(sim, UnitDiskModel(radius_m=25.0), trace)
    macs = [CsmaMac(Radio(medium, i, (5.0 * i, 0.0))) for i in (1, 2, 3)]
    upcalls = {}
    for mac in macs:
        # Wrap the radio upcall the MAC installed, counting what reaches it.
        node, inner = mac.radio.node_id, mac.radio.on_receive
        upcalls[node] = []

        def upcall(frame, rssi, node=node, inner=inner):
            upcalls[node].append((frame.payload.kind, frame.payload.dst))
            inner(frame, rssi)

        mac.radio.on_receive = upcall
        mac.start()
    sniffer = Radio(medium, 9, (0.0, 5.0))
    sniffer.set_listening()
    upcalls[9] = []
    sniffer.on_receive = lambda frame, rssi: upcalls[9].append(
        (frame.payload.kind, frame.payload.dst))
    return trace, medium, macs, sniffer, upcalls


def test_mac_radios_recognise_their_own_id_and_broadcast(sim):
    _, _, macs, sniffer, _ = build(sim)
    assert sniffer.rx_addresses is None
    for mac in macs:
        assert mac.radio.rx_addresses == {mac.radio.node_id, BROADCAST}


def test_a_third_party_gets_no_upcall_but_still_counts(sim):
    trace, _, (a, b, c), sniffer, upcalls = build(sim)
    got, outcome = [], []
    b.on_receive = lambda frame: got.append(frame.payload)
    a.send(2, "for b", 20, done=outcome.append)
    sim.run(until=1.0)
    assert got == ["for b"] and outcome == [True]
    data, ack = (FrameKind.DATA, 2), (FrameKind.ACK, 1)
    assert upcalls[2] == [data]
    assert upcalls[1] == [ack]
    assert upcalls[3] == []                 # overheard both, handed up none
    assert c.radio.frames_received == 2
    assert upcalls[9] == [data, ack]        # a bare radio gets every frame
    # Every copy is a reception: at b, c and the sniffer, then a, c, sniffer.
    assert trace.count("radio.rx") == 6
    assert c.stats.rx_delivered == 0 and c.stats.rx_duplicates == 0


def test_broadcasts_and_beacons_reach_every_mac(sim):
    _, medium, (a, b, c), sniffer, upcalls = build(sim)
    got = {2: [], 3: []}
    b.on_receive = lambda frame: got[2].append(frame.payload)
    c.on_receive = lambda frame: got[3].append(frame.payload)
    a.send(BROADCAST, "to all", 20)
    sim.run(until=1.0)
    assert got == {2: ["to all"], 3: ["to all"]}
    beacon = MacFrame(kind=FrameKind.BEACON, src=9, dst=BROADCAST, seq=0)
    medium.transmit(sniffer, Frame(beacon, beacon.size_bytes,
                                   sniffer.channel, 9))
    sim.run(until=2.0)
    for node in (1, 2, 3):
        assert upcalls[node][-1] == (FrameKind.BEACON, BROADCAST)
