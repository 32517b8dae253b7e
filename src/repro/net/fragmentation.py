"""6LoWPAN-style fragmentation (RFC 4944 §5.3).

IEEE 802.15.4 frames carry at most 127 bytes; anything bigger — a CoAP
payload, a CRDT state, a pull batch — must be fragmented at the
adaptation layer and reassembled hop by hop.  This module provides the
mesh-under variant: each hop reassembles the full packet before routing
it onward (how 6LoWPAN border implementations commonly behave), charging
the per-fragment header overhead and losing the whole packet if any
fragment dies.

The module is deliberately self-contained: :class:`FragmentationAdapter`
wraps a MAC's unicast path, so the stack stays oblivious except for two
calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.net.mac.base import MacLayer
from repro.sim.timers import Timer

#: Maximum MAC payload a single 802.15.4 frame can carry after headers.
FRAME_MTU_BYTES = 102
#: FRAG1 header: dispatch + datagram size + tag (RFC 4944).
FRAG1_HEADER_BYTES = 4
#: FRAGN header: adds the offset byte.
FRAGN_HEADER_BYTES = 5
#: Reassembly buffers are discarded after this long (RFC 4944: 15 s).
REASSEMBLY_TIMEOUT_S = 15.0


@dataclass(slots=True)
class Fragment:
    """One link-layer fragment of a larger payload."""

    tag: int
    index: int
    count: int
    total_bytes: int
    chunk_bytes: int
    #: The original payload rides on the *first* fragment only (the
    #: simulator does not byte-slice objects); the rest carry padding.
    payload: Any = None

    @property
    def size_bytes(self) -> int:
        header = FRAG1_HEADER_BYTES if self.index == 0 else FRAGN_HEADER_BYTES
        return header + self.chunk_bytes


class _ReassemblyBuffer:
    __slots__ = ("fragments", "count", "payload", "deadline")

    def __init__(self, count: int, deadline: float) -> None:
        self.fragments: set = set()
        self.count = count
        self.payload: Any = None
        self.deadline = deadline


class FragmentationAdapter:
    """Fragments oversized unicasts and reassembles inbound fragments."""

    COUNTED = (("frag.fragments", {}, "fragments_sent"),)

    def __init__(
        self,
        mac: MacLayer,
        deliver: Callable[[int, Any, int], None],
    ) -> None:
        self.mac = mac
        self.sim = mac.sim
        self.trace = mac.trace
        self.deliver = deliver
        #: Live buffers in creation order, which is deadline order.
        self._buffers: Dict[Tuple[int, int], _ReassemblyBuffer] = {}
        #: Recently completed (src, tag) -> until when a fragment of it
        #: is a straggler that must not seed a fresh buffer (and deliver
        #: twice).  In completion order; stale ones go from the front.
        self._completed: Dict[Tuple[int, int], float] = {}
        #: One timer for all buffers, armed at ``_due`` (inf: disarmed)
        #: for the oldest one's deadline (DESIGN.md, "Hot single-trial
        #: paths": the same expiries as a timer per buffer).
        self._expiry = Timer(self.sim, self._expire_due)
        self._due = math.inf
        self.packets_fragmented = 0
        self.fragments_sent = 0
        self.reassemblies = 0
        self.reassembly_failures = 0
        self.duplicate_fragments = 0
        self.trace.add_reader(self, mac.radio.node_id, self.COUNTED)

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def needs_fragmentation(self, size_bytes: int) -> bool:
        return size_bytes > FRAME_MTU_BYTES

    def plan(self, total_bytes: int) -> List[int]:
        """Chunk sizes for a payload of ``total_bytes``."""
        if total_bytes <= 0:
            raise ValueError("total_bytes must be positive")
        chunk = FRAME_MTU_BYTES - FRAGN_HEADER_BYTES
        sizes = []
        remaining = total_bytes
        while remaining > 0:
            sizes.append(min(chunk, remaining))
            remaining -= chunk
        return sizes

    def send(
        self,
        dest: int,
        payload: Any,
        size_bytes: int,
        done: Optional[Callable[[bool], None]] = None,
        trace_ctx: Any = None,
    ) -> None:
        """Send, fragmenting when the payload exceeds the frame MTU.

        ``done(ok)`` fires once: True only if *every* fragment was
        acknowledged — losing one fragment loses the packet.
        ``trace_ctx`` propagates the lifecycle span to the MAC jobs;
        a fragmented send opens one ``net.fragment`` child span per
        fragment beneath it, so the MAC/radio work of each fragment
        reconstructs separately instead of collapsing into one hop.
        """
        if not self.needs_fragmentation(size_bytes):
            self.mac.send(dest, payload, size_bytes, done=done,
                          trace_ctx=trace_ctx)
            return
        sizes = self.plan(size_bytes)
        tag = self.sim.next_id("frag.tag")
        self.packets_fragmented += 1
        outcome = {"pending": len(sizes), "failed": False}

        def all_done(ok: bool) -> None:
            outcome["pending"] -= 1
            if not ok:
                outcome["failed"] = True
            if outcome["pending"] == 0 and done is not None:
                done(not outcome["failed"])

        obs = self.trace.obs
        node_id = self.mac.radio.node_id
        for index, chunk_bytes in enumerate(sizes):
            fragment = Fragment(
                tag=tag, index=index, count=len(sizes),
                total_bytes=size_bytes, chunk_bytes=chunk_bytes,
                payload=payload if index == 0 else None,
            )
            self.fragments_sent += 1
            frag_ctx = trace_ctx
            frag_done: Callable[[bool], None] = all_done
            if obs is not None and trace_ctx is not None:
                frag_ctx = obs.spans.start(
                    trace_ctx, "net.fragment", node=node_id, t=self.sim.now,
                    tag=tag, index=index, of=len(sizes),
                    bytes=fragment.size_bytes,
                )

                def frag_done(ok: bool, _ctx=frag_ctx) -> None:
                    obs.spans.finish(_ctx, self.sim.now, ok=ok)
                    all_done(ok)

            self.mac.send(dest, fragment, fragment.size_bytes,
                          done=frag_done, trace_ctx=frag_ctx)
        self.trace.emit(self.sim.now, "frag.sent", node=node_id,
                        tag=tag, fragments=len(sizes), bytes=size_bytes)

    # ------------------------------------------------------------------
    # receiving
    # ------------------------------------------------------------------
    def on_frame(self, src: int, payload: Any, payload_bytes: int) -> bool:
        """Feed a received MAC payload; returns True when consumed.

        Non-fragment payloads return False so the stack dispatches them
        normally.
        """
        if not isinstance(payload, Fragment):
            return False
        key = (src, payload.tag)
        now = self.sim.now
        if now < self._completed.get(key, now):
            self.duplicate_fragments += 1
            return True
        if now >= self._due:
            # Expiry is due at this very instant: a buffer's deadline
            # comes before any fragment that arrives at it.
            self._expire_due()
        buffer = self._buffers.get(key)
        if buffer is None:
            buffer = self._buffers[key] = _ReassemblyBuffer(
                payload.count, now + REASSEMBLY_TIMEOUT_S)
            if self._due == math.inf:
                self._due = buffer.deadline
                self._expiry.start_at(buffer.deadline)
        buffer.fragments.add(payload.index)
        if payload.index == 0:
            buffer.payload = payload.payload
        if len(buffer.fragments) == buffer.count:
            del self._buffers[key]
            completed = self._completed
            while completed:
                oldest = next(iter(completed))
                if completed[oldest] > now:
                    break
                del completed[oldest]
            completed[key] = now + REASSEMBLY_TIMEOUT_S
            self.reassemblies += 1
            self.trace.emit(now, "frag.reassembled",
                            node=self.mac.radio.node_id, src=src,
                            tag=payload.tag)
            self.deliver(src, buffer.payload, payload.total_bytes)
        return True

    def _expire_due(self) -> None:
        """Drop every buffer whose deadline has come, oldest first, then
        re-arm for the oldest one left."""
        now = self.sim.now
        buffers = self._buffers
        while buffers:
            key = next(iter(buffers))
            deadline = buffers[key].deadline
            if deadline > now:
                self._due = deadline
                self._expiry.start_at(deadline)
                return
            del buffers[key]
            self.reassembly_failures += 1
            self.trace.emit(now, "frag.timeout",
                            node=self.mac.radio.node_id, tag=key[1])
        self._due = math.inf
        self._expiry.cancel()
