"""The per-node network stack.

Binds one radio, one MAC, one RPL router and (optionally) an RNFD agent
into the thing applications program against: a UDP-like socket API with
``bind(port, handler)`` and ``send_datagram(...)``.

Routing follows RPL's non-storing pattern: everything flows up the
DODAG to the root over preferred parents; the root source-routes
downward traffic from its DAO table; point-to-point traffic transits the
root.  The stack also owns fault hooks (:meth:`NetworkStack.fail` /
:meth:`NetworkStack.recover`) used by the dependability experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from repro.net import packet as wire
from repro.net.fragmentation import FragmentationAdapter
from repro.net.mac.base import MacLayer
from repro.net.mac.csma import CsmaConfig, CsmaMac
from repro.net.mac.lpl import LplConfig, LplMac
from repro.net.mac.rimac import RiMac, RiMacConfig
from repro.net.mac.tsch import TschConfig, TschMac
from repro.net.packet import BROADCAST, Datagram, MacFrame, NetPacket
from repro.net.rpl.dodag import RplConfig, RplRouter, RplState
from repro.net.rpl.messages import (
    DaoMessage,
    DioMessage,
    DisMessage,
    RnfdGossip,
    RnfdProbe,
)
from repro.net.rpl.objective import Mrhof, ObjectiveFunction, Of0
from repro.net.rpl.rnfd import Cfrc, RnfdAgent, RnfdConfig
from repro.radio.channels import IEEE802154_CHANNELS
from repro.radio.medium import Medium, Radio

#: Reserved UDP-like port carrying DAO messages to the root.
RPL_DAO_PORT = 0

_MAC_REGISTRY = {
    "csma": (CsmaMac, CsmaConfig),
    "lpl": (LplMac, LplConfig),
    "rimac": (RiMac, RiMacConfig),
    "tsch": (TschMac, TschConfig),
}

_OBJECTIVE_REGISTRY = {"mrhof": Mrhof, "of0": Of0}


@dataclass
class StackConfig:
    """Configuration shared by every node of one network.

    Checked when built: a mismatched or unknown value raises
    ``ValueError`` naming the field, not an ``AttributeError`` mid-run.
    """

    mac: str = "csma"
    #: An instance of the config class ``_MAC_REGISTRY`` lists for
    #: ``mac``; None builds that class's defaults.
    mac_config: Optional[object] = None
    rpl: RplConfig = field(default_factory=RplConfig)
    objective: str = "mrhof"
    rnfd_enabled: bool = False
    rnfd: RnfdConfig = field(default_factory=RnfdConfig)
    channel: int = 26
    #: One blind retry through a (possibly new) parent on upward failure.
    upward_retries: int = 1

    def __post_init__(self) -> None:
        if self.mac not in _MAC_REGISTRY:
            raise ValueError(f"StackConfig.mac: unknown MAC {self.mac!r}; "
                             f"choose from {sorted(_MAC_REGISTRY)}")
        config_cls = _MAC_REGISTRY[self.mac][1]
        if self.mac_config is not None and not isinstance(self.mac_config, config_cls):
            raise ValueError(
                f"StackConfig.mac_config: mac={self.mac!r} takes a "
                f"{config_cls.__name__}, not {type(self.mac_config).__name__}")
        if self.objective not in _OBJECTIVE_REGISTRY:
            raise ValueError(
                f"StackConfig.objective: unknown objective {self.objective!r}; "
                f"choose from {sorted(_OBJECTIVE_REGISTRY)}")
        if self.channel not in IEEE802154_CHANNELS:
            raise ValueError(f"StackConfig.channel: {self.channel} is not an "
                             f"IEEE 802.15.4 channel (11..26)")
        if self.upward_retries < 0:
            raise ValueError(f"StackConfig.upward_retries: must be >= 0, "
                             f"not {self.upward_retries}")
        # The routing config's refusal, at construction (a MAC config's
        # is its own): a Scenario holding this stack is refused when made.
        self.rpl.validate()

    def make_mac(self, radio: Radio) -> MacLayer:
        mac_cls, config_cls = _MAC_REGISTRY[self.mac]
        mac_config = self.mac_config if self.mac_config is not None else config_cls()
        return mac_cls(radio, config=mac_config)

    def make_objective(self) -> ObjectiveFunction:
        return _OBJECTIVE_REGISTRY[self.objective]()


@dataclass
class StackStats:
    """End-to-end datagram accounting for one node."""

    datagrams_sent: int = 0
    datagrams_delivered: int = 0
    datagrams_forwarded: int = 0
    datagrams_dropped_no_route: int = 0
    datagrams_dropped_ttl: int = 0
    datagrams_dropped_link: int = 0


class NetworkStack:
    """One node's complete stack: radio + MAC + RPL (+ RNFD) + sockets."""

    #: Counters the registry reads from this stack (``TraceLog.add_reader``).
    COUNTED = (
        ("net.sent", {}, "stats.datagrams_sent"),
        ("net.delivered", {}, "stats.datagrams_delivered"),
        ("net.forwarded", {}, "stats.datagrams_forwarded"),
        ("net.dropped", {"reason": "no_route"}, "stats.datagrams_dropped_no_route"),
        ("net.dropped", {"reason": "link"}, "stats.datagrams_dropped_link"),
        ("net.dropped", {"reason": "ttl"}, "stats.datagrams_dropped_ttl"),
    )

    def __init__(
        self,
        medium: Medium,
        node_id: int,
        position: Tuple[float, float],
        config: Optional[StackConfig] = None,
        is_root: bool = False,
    ) -> None:
        self.medium = medium
        self.sim = medium.sim
        self.trace = medium.trace
        self.node_id = node_id
        self.config = config if config is not None else StackConfig()
        self.is_root = is_root
        self.stats = StackStats()
        self.radio = Radio(medium, node_id, position, channel=self.config.channel)
        self.mac = self.config.make_mac(self.radio)
        self.mac.on_receive = self._on_mac_frame
        self.frag = FragmentationAdapter(self.mac, deliver=self._on_reassembled)
        self.rpl = RplRouter(
            node_id, transport=self,
            config=self.config.rpl,
            objective=self.config.make_objective(),
            is_root=is_root,
        )
        self.rpl.send_dao_upward = self._send_dao
        self.rnfd: Optional[RnfdAgent] = None
        if self.config.rnfd_enabled:
            self.rnfd = RnfdAgent(self.rpl, self.config.rnfd)
        self._sockets: Dict[int, Callable[[Datagram], None]] = {}
        self.alive = True
        self.trace.add_reader(self, node_id, self.COUNTED)

    # ------------------------------------------------------------------
    # lifecycle & faults
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Bring the whole stack up."""
        self.mac.start()
        self.rpl.start()
        if self.rnfd is not None:
            self.rnfd.start()

    def stop(self) -> None:
        if self.rnfd is not None:
            self.rnfd.stop()
        self.rpl.stop()
        self.mac.stop()

    def fail(self) -> None:
        """Crash-stop the node (dependability experiments)."""
        if not self.alive:
            return
        self.alive = False
        self.stop()
        self.radio.enabled = False
        self.trace.emit(self.sim.now, "node.failed", node=self.node_id)

    def recover(self) -> None:
        """Restart after a crash; routing state is rebuilt from scratch."""
        if self.alive:
            return
        self.alive = True
        self.radio.enabled = True
        self.mac.start()
        self.rpl.start()
        if self.rnfd is not None:
            self.rnfd.reset()
            self.rnfd.start()
        self.trace.emit(self.sim.now, "node.recovered", node=self.node_id)

    # ------------------------------------------------------------------
    # RplTransport protocol
    # ------------------------------------------------------------------
    def broadcast_control(
        self, message: Any, size_bytes: int, trace_ctx: Any = None
    ) -> None:
        self.mac.send(BROADCAST, message, size_bytes, trace_ctx=trace_ctx)

    def unicast_control(
        self,
        dest: int,
        message: Any,
        size_bytes: int,
        done: Optional[Callable[[bool], None]] = None,
        trace_ctx: Any = None,
    ) -> None:
        self.mac.send(dest, message, size_bytes, done=done, trace_ctx=trace_ctx)

    def link_prr(self, neighbor: int) -> float:
        return self.medium.link_prr(self.node_id, neighbor)

    # ------------------------------------------------------------------
    # socket API
    # ------------------------------------------------------------------
    def bind(self, port: int, handler: Callable[[Datagram], None]) -> None:
        """Register ``handler`` for datagrams arriving on ``port``."""
        if port in self._sockets:
            raise ValueError(f"port {port} already bound on node {self.node_id}")
        self._sockets[port] = handler

    def unbind(self, port: int) -> None:
        self._sockets.pop(port, None)

    def send_datagram(
        self,
        dst: int,
        dst_port: int,
        payload: Any,
        payload_bytes: int,
        src_port: int = 1,
        done: Optional[Callable[[bool], None]] = None,
        trace_ctx: Any = None,
    ) -> None:
        """Send a datagram to node ``dst``.

        ``done(ok)`` reports only the *local* outcome (first hop handed
        to the MAC); end-to-end delivery is observed at the receiver.
        ``trace_ctx`` (repro.obs) makes the datagram's lifecycle span a
        child of the caller's span; under an observability run a root
        span is opened when the caller has none.
        """
        ctx = None
        obs = self.trace.obs
        if obs is not None:
            ctx = obs.spans.start(
                trace_ctx, "net.datagram", node=self.node_id,
                t=self.sim.now, dst=dst, port=dst_port,
            )
        datagram = Datagram(
            src=self.node_id, src_port=src_port,
            dst=dst, dst_port=dst_port,
            payload=payload, payload_bytes=payload_bytes, trace_ctx=ctx,
        )
        packet = NetPacket(
            src=self.node_id, dst=dst,
            payload=datagram, payload_bytes=datagram.size_bytes,
            ttl=wire.DEFAULT_TTL, created_at=self.sim.now,
            packet_id=self.sim.next_id("net.seq"), trace_ctx=ctx,
        )
        self.stats.datagrams_sent += 1
        self._route(packet, packet.ttl, done, self.config.upward_retries)

    def send_local_broadcast(
        self, port: int, payload: Any, payload_bytes: int, src_port: int = 1,
        trace_ctx: Any = None,
    ) -> None:
        """One-hop broadcast datagram to all MAC neighbors.

        Used by gossip protocols (CRDT anti-entropy, aggregation query
        dissemination) that deliberately work link-locally instead of
        routing through the DODAG.  ``trace_ctx`` parents the MAC job
        and per-fragment spans, and rides on the datagram so receivers
        can attach their handling to the sender's span.
        """
        datagram = Datagram(
            src=self.node_id, src_port=src_port,
            dst=BROADCAST, dst_port=port,
            payload=payload, payload_bytes=payload_bytes, trace_ctx=trace_ctx,
        )
        self.frag.send(BROADCAST, datagram, datagram.size_bytes,
                       trace_ctx=trace_ctx)

    # ------------------------------------------------------------------
    # routing / forwarding
    # ------------------------------------------------------------------
    def _send_dao(
        self, dao: DaoMessage, size_bytes: int, trace_ctx: Any = None
    ) -> None:
        root = self.rpl.dodag_id
        if root is None:
            return
        self.send_datagram(root, RPL_DAO_PORT, dao, size_bytes,
                           trace_ctx=trace_ctx)

    def _route(
        self,
        packet: NetPacket,
        ttl: int,
        done: Optional[Callable[[bool], None]],
        retries_left: int,
    ) -> None:
        """Send a copy of ``packet``, the header as originated or received,
        one hop on with hop limit ``ttl``; a retry re-routes the same
        header, never a copy in flight (DESIGN.md, "Wire values")."""
        if packet.dst == self.node_id:
            self._deliver(packet)
            if done is not None:
                done(True)
            return
        obs = self.trace.obs
        next_hop, route = self._next_hop(packet)
        if next_hop is None:
            self.stats.datagrams_dropped_no_route += 1
            self.trace.emit(self.sim.now, "net.no_route", node=self.node_id,
                            dst=packet.dst)
            if obs is not None:
                obs.spans.finish(packet.trace_ctx, self.sim.now,
                                 dropped="no_route")
            if done is not None:
                done(False)
            return

        # One forwarding-hop span per transmission attempt: the RPL
        # next-hop decision, the MAC job beneath it, and the outcome.
        hop_ctx = packet.trace_ctx
        if obs is not None and packet.trace_ctx is not None:
            hop_ctx = obs.spans.start(
                packet.trace_ctx, "net.hop", node=self.node_id,
                t=self.sim.now, next_hop=next_hop, ttl=ttl,
            )

        def feedback(ok: bool) -> None:
            if hop_ctx is not packet.trace_ctx and hop_ctx is not None:
                obs.spans.finish(hop_ctx, self.sim.now, ok=ok)
            self.rpl.link_feedback(next_hop, ok)
            if ok:
                if done is not None:
                    done(True)
                return
            if retries_left > 0:
                # Parent re-selection may have found a different hop.
                self._route(packet, ttl, done, retries_left - 1)
                return
            self.stats.datagrams_dropped_link += 1
            self.trace.emit(self.sim.now, "net.link_drop", node=self.node_id,
                            dst=packet.dst, hop=next_hop)
            if obs is not None:
                obs.spans.finish(packet.trace_ctx, self.sim.now,
                                 dropped="link")
            if done is not None:
                done(False)

        outgoing = NetPacket(
            src=packet.src, dst=packet.dst, payload=packet.payload,
            payload_bytes=packet.payload_bytes, ttl=ttl,
            hops=packet.hops + 1, source_route=route,
            sender_rank=self.rpl.rank, created_at=packet.created_at,
            packet_id=packet.packet_id, trace_ctx=packet.trace_ctx,
        )
        self.frag.send(next_hop, outgoing, outgoing.size_bytes,
                       done=feedback, trace_ctx=hop_ctx)

    def _next_hop(
        self, packet: NetPacket
    ) -> Tuple[Optional[int], Tuple[int, ...]]:
        """The next hop for ``packet`` and the source route to send it with."""
        route = packet.source_route
        if route:
            # Downward source routing: the hop after this node's place.
            at = route.index(self.node_id) + 1 if self.node_id in route else 0
            return (route[at] if at < len(route) else None), route
        # At the root: attach a source route from the DAO table.
        if self.rpl.state in (RplState.ROOT, RplState.FLOATING_ROOT) and (
            self.rpl.node_id == (self.rpl.dodag_id or self.rpl.node_id)
        ):
            hops = self.rpl.route_to(packet.dst)
            return (hops[0], tuple(hops)) if hops else (None, route)
        # Upward default route.
        return self.rpl.preferred_parent, route

    def _deliver(self, packet: NetPacket) -> None:
        datagram = packet.payload
        if not isinstance(datagram, Datagram):
            return
        latency = self.sim.now - packet.created_at
        self.stats.datagrams_delivered += 1
        self.trace.emit(self.sim.now, "net.delivered", node=self.node_id,
                        src=packet.src, port=datagram.dst_port,
                        latency=latency, hops=packet.hops,
                        path=packet.source_route)
        obs = self.trace.obs
        if obs is not None:
            ctx = packet.trace_ctx
            obs.registry.observe(
                "net.latency_s", latency, port=datagram.dst_port,
                exemplar=None if ctx is None else obs.spans.trace_of(ctx))
            obs.spans.finish(ctx, self.sim.now, delivered=True,
                             latency=latency, hops=packet.hops)
        if datagram.dst_port == RPL_DAO_PORT:
            if isinstance(datagram.payload, DaoMessage):
                self.rpl.handle_dao(datagram.payload)
            return
        handler = self._sockets.get(datagram.dst_port)
        if handler is not None:
            handler(datagram)

    # ------------------------------------------------------------------
    # MAC upcall dispatch
    # ------------------------------------------------------------------
    def _on_reassembled(self, src: int, payload: Any, total_bytes: int) -> None:
        """Dispatch a network payload, whole in one frame or reassembled
        from fragments: a packet, or a header-less broadcast datagram."""
        if isinstance(payload, NetPacket):
            self._handle_packet(payload)
        elif isinstance(payload, Datagram):
            handler = self._sockets.get(payload.dst_port)
            if handler is not None:
                handler(payload)

    def _on_mac_frame(self, frame: MacFrame) -> None:
        payload = frame.payload
        if self.frag.on_frame(frame.src, payload, frame.payload_bytes):
            return
        if isinstance(payload, DioMessage):
            self.rpl.handle_dio(frame.src, payload)
            if self.rnfd is not None and payload.options:
                self.rnfd.handle_options(payload.options)
            return
        if isinstance(payload, DisMessage):
            self.rpl.handle_dis(frame.src)
            return
        if isinstance(payload, RnfdProbe):
            return  # liveness answered by the link-layer ACK
        if isinstance(payload, RnfdGossip):
            if self.rnfd is not None:
                self.rnfd.handle_options({"cfrc": Cfrc(entries=dict(payload.entries))})
            return
        # A packet, or a link-local broadcast datagram (no network header).
        self._on_reassembled(frame.src, payload, frame.payload_bytes)

    def _handle_packet(self, packet: NetPacket) -> None:
        if packet.dst == self.node_id:
            self._deliver(packet)
            return
        if not packet.source_route and packet.sender_rank <= self.rpl.rank:
            # Upward traffic must strictly decrease in rank.
            self.rpl.datapath_inconsistency()
        ttl = packet.ttl - 1
        obs = self.trace.obs
        if ttl <= 0:
            self.stats.datagrams_dropped_ttl += 1
            self.trace.emit(self.sim.now, "net.ttl_drop", node=self.node_id,
                            dst=packet.dst)
            if obs is not None:
                obs.spans.finish(packet.trace_ctx, self.sim.now,
                                 dropped="ttl")
            return
        self.stats.datagrams_forwarded += 1
        self._route(packet, ttl, None, self.config.upward_retries)
