"""6P-style cell negotiation: a two-step transaction over one schedule.

:class:`SixpPeer` is a pure state machine — no timers, no radio, no
MAC: it reserves candidate slots in a
:class:`~repro.net.mac.schedule.TschSchedule`, builds and consumes
:class:`SixpMessage` payloads, and commits or releases on the response
or the deadline.  :class:`~repro.net.mac.tsch.TschMac` is its transport
(6P rides the ordinary transmit queue) and its clock (``expire`` at
slotframe boundaries).  :class:`TschStats` is here because both write it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.net.mac.schedule import Cell, SlotConflictError, TschSchedule

#: Wire size charged for a 6P negotiation payload.
SIXP_MESSAGE_BYTES = 14
# Negotiation limits, read at run time (a test patches them).
#: ADD candidates offered per 6P request.
SIXP_CANDIDATES = 3
#: Transaction lifetime before the initiator gives up.
SIXP_TIMEOUT_S = 6.0
#: Channel-offset space for dedicated cells (the minimal cell is pinned
#: at offset 0).
CHANNEL_OFFSETS = 4
#: Dedicated cells one node grants toward one neighbor (MSF adds no more).
MAX_CELLS_PER_NEIGHBOR = 3


@dataclass(frozen=True)
class SixpMessage:
    """A 6P-style negotiation payload, carried inside a DATA frame.

    ``cells`` holds ``(slot, channel_offset)`` pairs: the candidate
    list on a request, the confirmed (or removed) cells on a response.
    ADD requests also carry ``active`` — the initiator's authoritative
    list of TX cells it currently holds toward the responder — so the
    responder can garbage-collect RX cells orphaned by lost or late
    responses before judging its capacity.
    """

    op: str                                # "add" | "delete"
    step: str                              # "request" | "response"
    txn: int
    cells: Tuple[Tuple[int, int], ...]
    ok: bool = True
    active: Tuple[Tuple[int, int], ...] = ()


@dataclass
class _Transaction:
    txn: int
    peer: int
    op: str
    cells: Tuple[Tuple[int, int], ...]
    deadline: float


@dataclass
class TschStats:
    """Scheduled-MAC counters beyond the common :class:`MacStats`."""

    dedicated_tx: int = 0
    shared_tx: int = 0
    #: Shared-cell TX opportunities given up to CCA or backoff.
    shared_deferrals: int = 0
    #: Unicast attempts in the shared cell that drew no ACK.
    shared_failures: int = 0
    sixp_sent: int = 0
    sixp_received: int = 0
    cells_added: int = 0
    cells_deleted: int = 0
    sixp_timeouts: int = 0
    #: Lifetime dedicated-cell accounting (MSF's used/elapsed signal).
    cells_elapsed: int = 0
    cells_used: int = 0


class SixpPeer:
    """The 6P-style two-step transaction layer over one schedule.

    Pure state machine — no timers, no radio: callers feed it
    :meth:`initiate_add` / :meth:`initiate_delete` / :meth:`handle` /
    :meth:`expire` and transport whatever messages it returns.  Under
    any interleaving of message loss and timeouts it maintains:

    - at most one in-flight transaction per peer;
    - candidate slots stay reserved only while their transaction is in
      flight — a response, a timeout, or a failure releases every one
      (*no orphaned reservations*);
    - a TX cell is committed only for the cell the peer confirmed, and
      responders install their RX cell *before* the confirmation
      travels back — so a lost response can leave a superfluous RX
      cell (idle listening, reclaimed by a later delete) but never a
      TX cell nobody listens to — which is also why a responder refuses
      a request its initiator has already superseded;
    - deletes drop the initiator's TX cells at request time, keeping
      the same "RX is a superset of peer TX" invariant for removal.
    """

    def __init__(self, node_id: int, schedule: TschSchedule, rng,
                 stats: Optional[TschStats] = None) -> None:
        self.node_id = node_id
        self.schedule = schedule
        self._rng = rng
        self.stats = stats if stats is not None else TschStats()
        self._txn_seq = 0
        self._inflight: Dict[int, _Transaction] = {}
        #: Per initiator, the newest request ``txn`` served from it.
        self._served: Dict[int, int] = {}

    def busy(self, peer: int) -> bool:
        return peer in self._inflight

    def inflight_count(self) -> int:
        return len(self._inflight)

    def _next_txn(self) -> int:
        self._txn_seq += 1
        # Node-scoped ids: (initiator, txn) is unique network-wide.
        return self._txn_seq

    # -- initiator side ------------------------------------------------
    def initiate_add(self, peer: int, now: float) -> Optional[SixpMessage]:
        """Reserve candidates and build an ADD request (None = can't)."""
        if peer in self._inflight:
            return None
        free = self.schedule.free_slots()
        if not free:
            return None
        count = min(SIXP_CANDIDATES, len(free))
        slots = sorted(self._rng.sample(free, count))
        txn = self._next_txn()
        cells = tuple(
            (slot, self._rng.randrange(CHANNEL_OFFSETS))
            for slot in slots)
        for slot, _ in cells:
            self.schedule.reserve(slot, txn)
        self._inflight[peer] = _Transaction(
            txn, peer, "add", cells, now + SIXP_TIMEOUT_S)
        active = tuple((c.slot, c.channel_offset)
                       for c in self.schedule.tx_cells_to(peer))
        return SixpMessage("add", "request", txn, cells, active=active)

    def initiate_delete(self, peer: int, victims: List[Cell],
                        now: float) -> Optional[SixpMessage]:
        """Drop TX cells toward ``peer`` and build the DELETE request.

        The cells are removed immediately (optimistic delete): the
        request only tells the peer to stop listening, so losing it can
        strand RX cells but never a transmitting side.
        """
        if peer in self._inflight or not victims:
            return None
        cells = tuple((c.slot, c.channel_offset) for c in victims)
        for cell in victims:
            self.schedule.remove(cell.slot)
        self.stats.cells_deleted += len(victims)
        txn = self._next_txn()
        self._inflight[peer] = _Transaction(
            txn, peer, "delete", cells, now + SIXP_TIMEOUT_S)
        return SixpMessage("delete", "request", txn, cells)

    # -- responder side ------------------------------------------------
    def handle(self, src: int, msg: SixpMessage,
               now: float) -> Optional[SixpMessage]:
        """Process one received 6P message; returns the reply to send."""
        if msg.step == "request":
            return self._handle_request(src, msg)
        self._handle_response(src, msg)
        return None

    def _handle_request(self, src: int, msg: SixpMessage) -> SixpMessage:
        # Ids are per-initiator and monotonic, so a request no newer
        # than the last one served from ``src`` was overtaken by its
        # successor (its initiator gave up on it): acting on it now —
        # reconciling against its outdated ``active`` list, or deleting
        # a slot since re-granted — would take RX cells from under the
        # newer transaction's TX cells.
        if msg.txn <= self._served.get(src, 0):
            return SixpMessage(msg.op, "response", msg.txn, (), ok=False)
        self._served[src] = msg.txn
        if msg.op == "add":
            # Reconcile against the initiator's declared TX set: an RX
            # cell the initiator does not transmit into is an orphan
            # from a lost/late response — reclaim it, or the neighbor
            # cap would wedge all future ADDs from this peer.
            active = set(msg.active)
            for cell in self.schedule.rx_cells_from(src):
                if (cell.slot, cell.channel_offset) not in active:
                    self.schedule.remove(cell.slot)
                    self.stats.cells_deleted += 1
            if len(self.schedule.rx_cells_from(src)) >= MAX_CELLS_PER_NEIGHBOR:
                return SixpMessage("add", "response", msg.txn, (), ok=False)
            for slot, choff in msg.cells:
                cell = Cell(slot, choff, neighbor=src, rx=True)
                try:
                    self.schedule.add(cell)
                except SlotConflictError:
                    continue
                self.stats.cells_added += 1
                return SixpMessage("add", "response", msg.txn,
                                   ((slot, choff),), ok=True)
            return SixpMessage("add", "response", msg.txn, (), ok=False)
        removed = []
        for slot, choff in msg.cells:
            cell = self.schedule.get(slot)
            if cell is not None and cell.rx and cell.neighbor == src:
                self.schedule.remove(slot)
                removed.append((slot, choff))
        self.stats.cells_deleted += len(removed)
        return SixpMessage("delete", "response", msg.txn,
                           tuple(removed), ok=True)

    def _handle_response(self, src: int, msg: SixpMessage) -> None:
        txn = self._inflight.get(src)
        if txn is None or txn.txn != msg.txn or txn.op != msg.op:
            return      # stale or duplicate response
        del self._inflight[src]
        if txn.op != "add":
            return      # delete already applied at request time
        chosen = msg.cells[0] if (msg.ok and msg.cells) else None
        if chosen is not None and chosen not in txn.cells:
            chosen = None       # peer confirmed a cell we never offered
        for slot, choff in txn.cells:
            if chosen is not None and (slot, choff) == chosen:
                self.schedule.install_reserved(
                    slot, txn.txn,
                    Cell(slot, choff, neighbor=src, tx=True))
                self.stats.cells_added += 1
            else:
                self.schedule.release(slot, txn.txn)

    # -- timeouts ------------------------------------------------------
    def expire(self, now: float) -> int:
        """Abort transactions past their deadline, releasing holds."""
        expired = [p for p, t in self._inflight.items() if t.deadline <= now]
        for peer in expired:
            txn = self._inflight.pop(peer)
            if txn.op == "add":
                for slot, _ in txn.cells:
                    self.schedule.release(slot, txn.txn)
            self.stats.sixp_timeouts += 1
        return len(expired)
