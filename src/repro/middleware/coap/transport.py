"""CoAP message layer: reliability and deduplication (RFC 7252 §4).

Confirmable messages are retransmitted with exponential backoff until
acknowledged (or ``MAX_RETRANSMIT`` is exhausted).  Duplicates are
rejected by (peer, message id): a duplicate confirmable message is not
handed up again but answered with the ACK recorded for it
(:meth:`CoapTransport.record_ack`), or with an empty ACK when none was
recorded.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from repro.middleware.coap.codes import CoapCode, CoapType
from repro.middleware.coap.message import CoapMessage
from repro.net.stack import NetworkStack
from repro.sim.timers import Timer

#: Default CoAP UDP port.
COAP_PORT = 5683

# RFC 7252 §4.8 transmission parameters, read at run time (a test
# patches them).
ACK_TIMEOUT_S = 2.0
ACK_RANDOM_FACTOR = 1.5
MAX_RETRANSMIT = 4
#: How long (peer, message id) pairs are remembered for dedup.
EXCHANGE_LIFETIME_S = 240.0


class _PendingCon:
    """Book-keeping for one unacknowledged confirmable message."""

    __slots__ = ("message", "dest", "retries", "timer", "timeout", "on_fail",
                 "ctx")

    def __init__(self, message: CoapMessage, dest: int, timeout: float,
                 timer: Timer, on_fail: Optional[Callable[[], None]],
                 ctx: Any = None) -> None:
        self.message = message
        self.dest = dest
        self.retries = 0
        self.timeout = timeout
        self.timer = timer
        self.on_fail = on_fail
        #: Lifecycle span (repro.obs) retransmissions inherit.
        self.ctx = ctx


class CoapTransport:
    """The message layer bound to one node's network stack."""

    COUNTED = (("coap.retransmit", {}, "retransmissions"),
               ("coap.con_failed", {}, "failures"))

    def __init__(self, stack: NetworkStack) -> None:
        self.stack = stack
        self.sim = stack.sim
        self.trace = stack.trace
        #: Upper layer: called with (src_node, message).
        self.on_message: Optional[Callable[[int, CoapMessage], None]] = None
        self._pending: Dict[Tuple[int, int], _PendingCon] = {}
        self._seen: Dict[Tuple[int, int], float] = {}
        self._acked_by_us: Dict[Tuple[int, int], CoapMessage] = {}
        self._rng = self.sim.substream(f"coap.{stack.node_id}")
        self.messages_sent = 0
        self.retransmissions = 0
        self.failures = 0
        self.trace.add_reader(self, stack.node_id, self.COUNTED)
        stack.bind(COAP_PORT, self._on_datagram)

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def send(
        self,
        dest: int,
        message: CoapMessage,
        on_fail: Optional[Callable[[], None]] = None,
        trace_ctx: Any = None,
    ) -> None:
        """Send a message; CONs are tracked until ACKed.

        ``trace_ctx`` parents the lifecycle spans of every transmission
        of this message, retransmissions included.
        """
        self.messages_sent += 1
        obs = self.trace.obs
        if obs is not None:
            obs.registry.inc("coap.sent", node=self.stack.node_id,
                             mtype=message.mtype.name)
        if message.mtype is CoapType.CON:
            timeout = ACK_TIMEOUT_S * self._rng.uniform(1.0, ACK_RANDOM_FACTOR)
            key = (dest, message.message_id)
            timer = Timer(self.sim, lambda: self._retransmit(key))
            pending = _PendingCon(message, dest, timeout, timer, on_fail,
                                  ctx=trace_ctx)
            self._pending[key] = pending
            timer.start(timeout)
        self._transmit(dest, message, trace_ctx)

    def _transmit(self, dest: int, message: CoapMessage,
                  trace_ctx: Any = None) -> None:
        self.stack.send_datagram(
            dst=dest,
            dst_port=COAP_PORT,
            payload=message,
            payload_bytes=message.size_bytes,
            src_port=COAP_PORT,
            trace_ctx=trace_ctx,
        )

    def _retransmit(self, key: Tuple[int, int]) -> None:
        pending = self._pending.get(key)
        if pending is None:
            return
        pending.retries += 1
        obs = self.trace.obs
        if pending.retries > MAX_RETRANSMIT:
            del self._pending[key]
            self.failures += 1
            self.trace.emit(self.sim.now, "coap.con_failed",
                            node=self.stack.node_id, dest=pending.dest)
            if obs is not None:
                obs.spans.event(pending.ctx, "coap.con_failed",
                                node=self.stack.node_id, t=self.sim.now)
            if pending.on_fail is not None:
                pending.on_fail()
            return
        self.retransmissions += 1
        self.trace.emit(self.sim.now, "coap.retransmit",
                        node=self.stack.node_id, dest=pending.dest,
                        retries=pending.retries,
                        max_retransmit=MAX_RETRANSMIT)
        if obs is not None:
            obs.spans.event(pending.ctx, "coap.retransmit",
                            node=self.stack.node_id, t=self.sim.now,
                            retries=pending.retries)
        pending.timeout *= 2.0
        pending.timer.start(pending.timeout)
        self._transmit(pending.dest, pending.message, pending.ctx)

    # ------------------------------------------------------------------
    # receiving
    # ------------------------------------------------------------------
    def _on_datagram(self, datagram) -> None:
        message = datagram.payload
        if not isinstance(message, CoapMessage):
            return
        src = datagram.src
        if message.mtype in (CoapType.ACK, CoapType.RST):
            self._settle(src, message)
            if message.code is CoapCode.EMPTY:
                return  # pure message-layer traffic
        if message.mtype is CoapType.CON:
            key = (src, message.message_id)
            now = self.sim.now
            self._gc_seen(now)
            if key in self._seen:
                # Duplicate: re-ACK, swallow.
                earlier = self._acked_by_us.get(key)
                self.send(src, earlier if earlier is not None else message.ack())
                return
            self._seen[key] = now
        if self.on_message is not None:
            self.on_message(src, message)

    def _settle(self, src: int, message: CoapMessage) -> None:
        pending = self._pending.pop((src, message.message_id), None)
        if pending is not None:
            pending.timer.cancel()
            if message.mtype is CoapType.RST and pending.on_fail is not None:
                pending.on_fail()

    def record_ack(self, src: int, request: CoapMessage, ack: CoapMessage) -> None:
        """Remember the ACK we produced for a CON so duplicates can be
        answered identically (RFC 7252 §4.2 idempotent exchange replay)."""
        self._acked_by_us[(src, request.message_id)] = ack

    def _gc_seen(self, now: float) -> None:
        if len(self._seen) < 256:
            return
        horizon = now - EXCHANGE_LIFETIME_S
        for key in [k for k, t in self._seen.items() if t < horizon]:
            del self._seen[key]
            self._acked_by_us.pop(key, None)

    def close(self) -> None:
        """Unbind and cancel all retransmission timers."""
        for pending in self._pending.values():
            pending.timer.cancel()
        self._pending.clear()
        self.stack.unbind(COAP_PORT)
