"""Packet formats with explicit byte accounting.

Constrained networks live and die by header bytes (the paper's §II-B:
bandwidth and energy are scarce), so every layer here charges a header
size and the medium charges airtime per byte.  Payloads themselves are
Python objects — we account their *declared* size rather than
serializing, which keeps the simulator fast while preserving the cost
model.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Tuple

#: Link-layer broadcast address.
BROADCAST = 0xFFFF

#: 802.15.4-style MAC header+footer charged per frame.
MAC_HEADER_BYTES = 9
#: Link-layer acknowledgment frame size.
ACK_SIZE_BYTES = 5
#: Compressed (6LoWPAN-style) network header charged per packet.
NET_HEADER_BYTES = 7
#: Compressed UDP header.
UDP_HEADER_BYTES = 4
#: Hop limit a datagram starts with, and so the longest delivered path
#: in links.  Read at run time; a test patches it here.
DEFAULT_TTL = 16


class FrameKind(enum.Enum):
    """Link-layer frame types."""

    DATA = "data"
    ACK = "ack"
    BEACON = "beacon"


@dataclass(slots=True)
class MacFrame:
    """A link-layer frame as seen by MAC state machines."""

    kind: FrameKind
    src: int
    dst: int
    seq: int
    payload: Any = None
    payload_bytes: int = 0
    #: Authentication tag bytes added by the security layer (0 = none).
    auth_bytes: int = 0
    #: Span id of the MAC job carrying this frame (repro.obs);
    #: None outside observability runs and for control/ACK frames.
    trace_ctx: Any = None

    @property
    def size_bytes(self) -> int:
        if self.kind is FrameKind.ACK:
            return ACK_SIZE_BYTES
        if self.kind is FrameKind.BEACON:
            return MAC_HEADER_BYTES
        return MAC_HEADER_BYTES + self.payload_bytes + self.auth_bytes


@dataclass(slots=True)
class NetPacket:
    """A network-layer packet routed hop by hop.

    Written once: each attempt sends its own copy (DESIGN.md, "Wire
    values").  ``source_route`` carries the downward route in
    non-storing RPL; empty for upward (default-route) traffic.
    """

    src: int
    dst: int
    payload: Any
    payload_bytes: int
    ttl: int = DEFAULT_TTL
    #: Links this copy has crossed.
    hops: int = 0
    source_route: Tuple[int, ...] = ()
    #: RPL datapath validation (RFC 6550 §11.2): rank of the last
    #: forwarder; an upward packet arriving from an equal-or-lower rank
    #: signals a loop.
    sender_rank: int = 0
    created_at: float = 0.0
    #: Drawn by the sender from the run's ``net.seq`` id space
    #: (:meth:`~repro.sim.kernel.Simulator.next_id`), which MAC frame
    #: sequence numbers share; 0 = built outside a run.
    packet_id: int = 0
    #: Root span of this packet's lifecycle trace (repro.obs); every hop's
    #: copy carries it, so every layer attaches child spans to it.
    trace_ctx: Any = None

    @property
    def size_bytes(self) -> int:
        route_bytes = 2 * len(self.source_route)
        return NET_HEADER_BYTES + route_bytes + self.payload_bytes


@dataclass(slots=True)
class Datagram:
    """A UDP-like datagram delivered to a port on the destination node."""

    src: int
    src_port: int
    dst: int
    dst_port: int
    payload: Any
    payload_bytes: int
    #: Lifecycle span (repro.obs), visible to the receiving
    #: application so request/response handlers can correlate.
    trace_ctx: Any = None

    @property
    def size_bytes(self) -> int:
        return UDP_HEADER_BYTES + self.payload_bytes
