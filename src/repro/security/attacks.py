"""The adversary of the security experiments.

The attacker is an *outsider*: physically present (its radio is on the
shared medium) but without key material.  With link-layer
authentication enabled its frames die at the MAC filter; without it,
injected commands reach actuators — the delta experiment E11 reports.
"""

from __future__ import annotations

from typing import Any, Tuple

from repro.net.mac.csma import CsmaMac
from repro.net.packet import Datagram, NetPacket
from repro.radio.medium import Medium, Radio


class CommandInjector:
    """Injects forged actuation datagrams at a victim's MAC neighbor.

    The attacker spoofs a source address and unicasts a fabricated
    network packet straight to the victim — no routing needed when you
    are within radio range, which is exactly the §V-E threat: "arbitrary
    faults can be injected, violating the designers' basic assumptions".
    """

    def __init__(
        self,
        medium: Medium,
        node_id: int,
        position: Tuple[float, float],
    ) -> None:
        self.sim = medium.sim
        self.trace = medium.trace
        self.radio = Radio(medium, node_id, position)
        self.mac = CsmaMac(self.radio)
        self.mac.start()
        self.injections = 0

    def inject(
        self,
        victim: int,
        port: int,
        payload: Any,
        payload_bytes: int,
        spoof_src: int = 0,
    ) -> None:
        """Send one forged command to ``victim``'s service ``port``."""
        datagram = Datagram(
            src=spoof_src, src_port=port,
            dst=victim, dst_port=port,
            payload=payload, payload_bytes=payload_bytes,
        )
        packet = NetPacket(
            src=spoof_src, dst=victim,
            payload=datagram, payload_bytes=datagram.size_bytes,
            created_at=self.sim.now,
            sender_rank=0,  # pose as upstream so datapath checks pass
            packet_id=self.sim.next_id("net.seq"),
        )
        self.injections += 1
        self.trace.emit(self.sim.now, "attack.inject", node=self.radio.node_id,
                        victim=victim, port=port)
        self.mac.send(victim, packet, packet.size_bytes)
