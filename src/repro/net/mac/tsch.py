"""TSCH-style scheduled MAC: slotframe, cells, and 6P cell negotiation.

Time-Slotted Channel Hopping (IEEE 802.15.4-2015 TSCH, the 6TiSCH
industrial baseline) divides time into a repeating *slotframe* of fixed
slots.  A node is awake only in slots where its schedule holds a
*cell*; everything else is radio-off.  This implementation models the
6TiSCH-minimal shape:

- one **shared minimal cell** (slot 0, channel offset 0) on every node
  carries broadcasts (DIO/DIS advertisement and join traffic) and any
  unicast that has no dedicated cell yet, with slotted CSMA-CA access
  (CCA plus a per-node jitter inside the slot, exponential backoff in
  shared-cell occurrences after a failed unicast);
- **dedicated TX cells** toward individual neighbors are negotiated on
  demand by a minimal MSF-like scheduling function: unicast demand
  observed on the shared cell triggers a first ADD, and the per-neighbor
  cell utilization (used/elapsed, MSF's ``NumCellsUsed/NumCellsElapsed``)
  adds cells above :attr:`TschConfig.msf_high` and deletes them below
  :attr:`TschConfig.msf_low`;
- cell negotiation is a **6P-style two-step transaction**
  (:class:`SixpPeer`): the initiator reserves candidate slots and sends
  an ADD request, the responder installs the first workable candidate as
  an RX cell and confirms it, and only the confirmed cell is committed
  as a TX cell — so a dedicated TX cell always has a matching RX cell at
  the peer, and a timeout releases every reservation (no orphans);
- **channel hopping**: the frequency of a cell is
  ``hopping[(ASN + channelOffset) % len(hopping)]``, so cells on
  different channel offsets never interfere and narrow-band interferers
  are averaged over the hop sequence.

Slot alignment is global: ASN is derived from simulation time against a
shared epoch at t=0 (the network is assumed time-synchronized, the
coordination cost §IV-B attributes to scheduled MACs), and every slot
instant is ``ASN * slot_duration_s`` — a function of the ASN alone.
That also makes schedules seed-deterministic — every random choice
(candidate slots, channel offsets, shared-cell jitter/backoff) draws
from the node's ``mac.<id>`` substream.

**Idle listening costs no events.**  At sub-percent cell utilisation
almost every cell a node wakes for ends with nothing sent, received or
sensed, so the slot engine only schedules a *tick* for a cell it has a
job in (a transmission to arm, a shared-cell backoff to count down) and
for as long as the radio is awake afterwards (an exchange, an ACK, a
carrier-sense hold).  Once ``_slot_end`` puts the radio to sleep with
nothing pending, the RX and shared cells ahead are a *listen plan*
(:mod:`repro.radio.medium`, "Listen plans"): window ``[ASN·slot,
ASN·slot + slot − guard]`` on channel ``hopping[(ASN + offset) % 16]``
for every ASN whose slot holds such a cell.  ``sync()`` charges the
windows that elapsed untouched in closed form; ``frame_started()``,
called by the medium for every frame audible here, makes real the
window the frame hits (LISTEN since the window's own start, the real
``_slot_end`` armed) and ticks the next one that begins under it — from
there the engine runs exactly as if every cell had ticked.  Slotframe
boundaries get the same treatment: ``_frame_boundary`` runs as part of
a tick only where it can act (demand to turn into an ADD, a 6P
transaction to police, an MSF window closing with an add/delete
verdict); the boundaries in between only count TX cells into the MSF
window, which ``_account_boundaries`` does for any number of them at
once.  ``tests/conftest.py::eager_tsch`` is this class with every cell
ticking and every boundary running; ``tests/net/test_tsch_lazy.py``
holds the two to the same run.

Same-instant slot events carry a kernel priority derived from the node
id and run before anything else due at that instant, so their order is
a function of (ASN, node id) — not of which of them happened to be
scheduled, which under a listen plan varies from run to run of the same
protocol behaviour.

The class plugs into the :class:`~repro.net.mac.base.MacLayer` contract
unchanged: same ``mac.job`` spans split at ``service_start`` (here the
split point is dequeue, so ``mac.access`` covers the wait for a usable
cell — exactly the scheduled-MAC latency story), same ``mac.tx``
instruments, same queue/dedup/ACK machinery.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.net.mac.base import MacConfigError, MacLayer, _TxJob
from repro.net.packet import BROADCAST, MacFrame
from repro.radio.medium import RadioState
from repro.sim.timers import Timer

#: The default 6TiSCH hopping sequence over the 16 IEEE 802.15.4
#: channels (11..26).  All nodes share it; a cell's frequency is
#: ``hopping[(ASN + channel_offset) % 16]``.
DEFAULT_HOPPING: Tuple[int, ...] = (
    16, 17, 23, 18, 26, 15, 25, 22, 19, 11, 12, 13, 24, 14, 20, 21,
)

#: Slot of the shared minimal cell (6TiSCH-minimal: slot 0, offset 0).
MINIMAL_SLOT = 0

#: Wire size charged for a 6P negotiation payload.
SIXP_MESSAGE_BYTES = 14


class SlotConflictError(ValueError):
    """Raised when a cell would double-book a slot (or reservation)."""


@dataclass(frozen=True)
class Cell:
    """One schedule entry: a (slot, channel offset) rendezvous.

    ``neighbor`` is the peer the cell is dedicated to, or
    :data:`~repro.net.packet.BROADCAST` for the shared minimal cell.
    """

    slot: int
    channel_offset: int
    neighbor: int
    tx: bool = False
    rx: bool = False
    shared: bool = False

    @property
    def listens(self) -> bool:
        """Does serving the cell turn the receiver on?"""
        return self.rx or self.shared


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


class TschSchedule:
    """One node's slotframe: at most one cell per slot, plus the
    transaction reservations 6P holds while an ADD is in flight."""

    def __init__(self, slots: int) -> None:
        if slots < 2:
            raise MacConfigError("slotframe needs at least 2 slots")
        self.slots = slots
        self._cells: Dict[int, Cell] = {}
        #: The scheduled slots in order, kept by add/remove.
        self._slots: List[int] = []
        self._reserved: Dict[int, int] = {}    # slot -> holding txn

    # -- queries -------------------------------------------------------
    def get(self, slot: int) -> Optional[Cell]:
        return self._cells.get(slot)

    def cells(self) -> List[Cell]:
        return [self._cells[s] for s in self._slots]

    def next_occurrence(self, asn: int,
                        wanted: Callable[[Cell], bool]) -> Optional[int]:
        """The first ASN ``>= asn`` whose slot holds a cell ``wanted``
        accepts (None if no cell does): one pass over the scheduled
        slots, starting at ``asn``'s own."""
        slots = self._slots
        frame_start = asn - asn % self.slots
        first = bisect_left(slots, asn - frame_start)
        for i in range(first, first + len(slots)):
            wrapped, index = divmod(i, len(slots))
            if wanted(self._cells[slots[index]]):
                return frame_start + wrapped * self.slots + slots[index]
        return None

    def dedicated_cells(self) -> List[Cell]:
        return [c for c in self.cells() if not c.shared]

    def tx_cells_to(self, neighbor: int) -> List[Cell]:
        return [c for c in self.cells() if c.tx and not c.shared
                and c.neighbor == neighbor]

    def rx_cells_from(self, neighbor: int) -> List[Cell]:
        return [c for c in self.cells() if c.rx and not c.shared
                and c.neighbor == neighbor]

    def neighbors(self) -> List[int]:
        return sorted({c.neighbor for c in self._cells.values()
                       if not c.shared})

    def free_slots(self) -> List[int]:
        """Slots neither scheduled nor reserved, in slot order."""
        return [s for s in range(self.slots)
                if s not in self._cells and s not in self._reserved]

    def reserved_slots(self, txn: Optional[int] = None) -> List[int]:
        return sorted(s for s, t in self._reserved.items()
                      if txn is None or t == txn)

    # -- mutation ------------------------------------------------------
    def add(self, cell: Cell) -> None:
        if not 0 <= cell.slot < self.slots:
            raise SlotConflictError(
                f"slot {cell.slot} outside slotframe of {self.slots}")
        if cell.slot in self._cells:
            raise SlotConflictError(f"slot {cell.slot} already scheduled")
        if cell.slot in self._reserved:
            raise SlotConflictError(
                f"slot {cell.slot} reserved by txn {self._reserved[cell.slot]}")
        self._cells[cell.slot] = cell
        insort(self._slots, cell.slot)

    def remove(self, slot: int) -> Cell:
        if slot not in self._cells:
            raise SlotConflictError(f"slot {slot} not scheduled")
        del self._slots[bisect_left(self._slots, slot)]
        return self._cells.pop(slot)

    def reserve(self, slot: int, txn: int) -> None:
        if slot in self._cells:
            raise SlotConflictError(f"slot {slot} already scheduled")
        if slot in self._reserved:
            raise SlotConflictError(
                f"slot {slot} reserved by txn {self._reserved[slot]}")
        self._reserved[slot] = txn

    def release(self, slot: int, txn: int) -> None:
        if self._reserved.get(slot) == txn:
            del self._reserved[slot]

    def install_reserved(self, slot: int, txn: int, cell: Cell) -> None:
        """Commit a reservation into a real cell (the 6P confirm step)."""
        if self._reserved.get(slot) != txn:
            raise SlotConflictError(
                f"slot {slot} not reserved by txn {txn}")
        del self._reserved[slot]
        self.add(cell)


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
      TX cell nobody listens to;
    - deletes drop the initiator's TX cells at request time, keeping
      the same "RX is a superset of peer TX" invariant for removal.
    """

    def __init__(self, node_id: int, schedule: TschSchedule, rng,
                 config: "TschConfig", stats: Optional[TschStats] = None) -> None:
        self.node_id = node_id
        self.schedule = schedule
        self._rng = rng
        self.config = config
        self.stats = stats if stats is not None else TschStats()
        self._txn_seq = 0
        self._inflight: Dict[int, _Transaction] = {}

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
        count = min(self.config.sixp_candidates, len(free))
        slots = sorted(self._rng.sample(free, count))
        txn = self._next_txn()
        cells = tuple(
            (slot, self._rng.randrange(self.config.channel_offsets))
            for slot in slots)
        for slot, _ in cells:
            self.schedule.reserve(slot, txn)
        self._inflight[peer] = _Transaction(
            txn, peer, "add", cells, now + self.config.sixp_timeout_s)
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
            txn, peer, "delete", cells, now + self.config.sixp_timeout_s)
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
            if (len(self.schedule.rx_cells_from(src))
                    >= self.config.max_cells_per_neighbor):
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


@dataclass(frozen=True)
class TschConfig:
    """TSCH parameters (defaults follow the 6TiSCH-minimal shape)."""

    #: Slot length (10 ms, the 802.15.4 TSCH default template).
    slot_duration_s: float = 0.010
    #: Slots per slotframe (101, prime, so dedicated cells precess
    #: against periodic traffic instead of phase-locking to it).
    slotframe_slots: int = 101
    #: Channel-offset space for dedicated cells (the minimal cell is
    #: pinned at offset 0).
    channel_offsets: int = 4
    #: Network-wide hop sequence; frequency = hopping[(ASN+off) % len].
    hopping: Tuple[int, ...] = DEFAULT_HOPPING
    #: In-slot delay before the data frame starts (TsTxOffset).
    tx_offset_s: float = 0.0021
    #: Shared-cell CSMA-CA: transmission jitter window before which CCA
    #: runs, so contending nodes serialize instead of colliding head-on.
    shared_jitter_s: float = 0.0012
    #: How long past the frame end the sender waits for the ACK.
    ack_wait_s: float = 0.003
    #: Radio-off guard before the slot boundary (avoids a sleep/wake
    #: tie with the next slot's tick).
    slot_guard_s: float = 0.0005
    #: Link-layer retransmissions of one frame (across later cells).
    max_retries: int = 7
    #: Shared-cell backoff exponent bounds: after a failed shared-cell
    #: unicast the node skips ``U{0 .. 2^BE-1}`` shared occurrences.
    shared_be_min: int = 1
    shared_be_max: int = 5
    #: MSF evaluation window (dedicated TX cell occurrences per
    #: neighbor) and the add/delete utilization thresholds.
    msf_eval_cells: int = 8
    msf_high: float = 0.75
    msf_low: float = 0.15
    max_cells_per_neighbor: int = 3
    #: ADD candidates offered per 6P request.
    sixp_candidates: int = 3
    #: 6P transaction lifetime before the initiator gives up.
    sixp_timeout_s: float = 6.0

    def validate(self) -> None:
        if self.slot_duration_s <= 0:
            raise MacConfigError("slot_duration_s must be positive")
        if self.slotframe_slots < 2:
            raise MacConfigError("slotframe_slots must be >= 2")
        if self.channel_offsets < 1:
            raise MacConfigError("channel_offsets must be >= 1")
        if not self.hopping:
            raise MacConfigError("hopping sequence must be non-empty")
        if self.tx_offset_s <= 0:
            raise MacConfigError("tx_offset_s must be positive")
        in_slot = (self.tx_offset_s + self.shared_jitter_s
                   + self.slot_guard_s)
        if in_slot >= self.slot_duration_s:
            raise MacConfigError(
                "tx_offset_s + shared_jitter_s + slot_guard_s must fit "
                "inside one slot")
        if not self.shared_be_min <= self.shared_be_max:
            raise MacConfigError("shared_be_min must not exceed shared_be_max")
        if self.max_retries < 0:
            raise MacConfigError("max_retries must be >= 0")
        if self.msf_eval_cells < 1:
            raise MacConfigError("msf_eval_cells must be >= 1")
        if not 0.0 <= self.msf_low < self.msf_high <= 1.0:
            raise MacConfigError("need 0 <= msf_low < msf_high <= 1")
        if self.max_cells_per_neighbor < 1:
            raise MacConfigError("max_cells_per_neighbor must be >= 1")
        if self.sixp_candidates < 1:
            raise MacConfigError("sixp_candidates must be >= 1")
        if self.sixp_timeout_s <= 0:
            raise MacConfigError("sixp_timeout_s must be positive")


#: Slot events run before anything else due at the same instant (a slot
#: is decided the moment it begins; a frame handed over at that very
#: instant is late for it), each node's slot end before its next tick,
#: node by node: an order that is a function of (ASN, node id), whatever
#: subset of the events the listen plan left unscheduled.
_SLOT_PRIORITY_BASE = -(1 << 40)


class TschMac(MacLayer):
    """Slotted, scheduled channel access over a shared slotframe."""

    def __init__(self, sim, radio, config: Optional[TschConfig] = None,
                 **kwargs) -> None:
        super().__init__(sim, radio, **kwargs)
        self.config = config if config is not None else TschConfig()
        self.config.validate()
        self._tsch_stats = TschStats()
        self.schedule = TschSchedule(self.config.slotframe_slots)
        self.schedule.add(Cell(MINIMAL_SLOT, 0, BROADCAST,
                               tx=True, rx=True, shared=True))
        self.sixp = SixpPeer(radio.node_id, self.schedule, self._rng,
                             self.config, stats=self._tsch_stats)
        self._job: Optional[_TxJob] = None
        self._attempts = 0
        self._awaiting: Optional[_TxJob] = None
        self._await_shared = False
        self._be = self.config.shared_be_min
        self._backoff = 0
        #: How long a cell's window keeps the radio on.
        self._listen_s = self.config.slot_duration_s - self.config.slot_guard_s
        self._end_priority = _SLOT_PRIORITY_BASE + 2 * radio.node_id
        self._tick_priority = self._end_priority + 1
        self._next_asn = 0
        #: Every ASN below this is accounted for: served by a real tick,
        #: or charged to the radio in closed form.  ``_synced_until`` is
        #: when that ASN begins: until then there is nothing to sync.
        self._synced_asn = 0
        self._synced_until = 0.0
        self._syncing = False
        self._slot_timer = Timer(sim, self._slot_tick)
        self._slot_end_timer = Timer(sim, self._slot_end)
        self._ack_timer = Timer(sim, self._ack_timeout)
        #: Slotframe boundaries below this index have had their
        #: ``_frame_boundary`` (run, or its counters added in closed
        #: form); ``_boundary_frame`` is the next one that must run.
        self._frames_done = 0
        self._boundary_frame: float = math.inf
        self._first_boundary = False
        #: Unicast demand seen on the shared cell since the last
        #: slotframe boundary, per neighbor (MSF's trigger signal).
        self._demand: Dict[int, int] = {}
        #: MSF windowed used/elapsed per neighbor.
        self._elapsed: Dict[int, int] = {}
        self._used: Dict[int, int] = {}

    @property
    def tsch_stats(self) -> TschStats:
        self._account_boundaries()
        return self._tsch_stats

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _on_start(self) -> None:
        # The slot already running is written off: the first cell served
        # and the first boundary run are the next ones to begin.
        asn = self._current_asn()
        self._mark_synced(asn)
        self._frames_done = asn // self.config.slotframe_slots + 1
        self._first_boundary = True
        self.radio.set_listen_plan(self)
        self._plan_boundary()
        self._schedule_next_slot()

    def _on_stop(self) -> None:
        # Settle what the plan owes while it still stands.
        self.sync()
        self._account_boundaries()
        self.radio.set_listen_plan(None)
        self._slot_timer.cancel()
        self._slot_end_timer.cancel()
        self._ack_timer.cancel()
        self._awaiting = None
        self._job = None
        if self.radio.state is not RadioState.TX:
            self.radio.sleep()

    # ------------------------------------------------------------------
    # slot engine
    # ------------------------------------------------------------------
    # A cell is *served* by a real tick at its start instant when there
    # is something to do in it that is not plain listening.  Plain
    # listening in an RX or shared cell is left to the listen plan
    # below: no event, the radio charged in closed form afterwards —
    # unless a frame shows up, which makes the window real first.

    def _current_asn(self) -> int:
        # The slack absorbs float error in slot-boundary event times; it
        # is ~1e-8 s against a 10 ms slot, far below any event spacing.
        return int(self.sim.now / self.config.slot_duration_s + 1e-6)

    def _begun_asn(self) -> int:
        """The last slot whose start instant is not in the future."""
        asn = self._current_asn()
        return asn if self._slot_start(asn) <= self.sim.now else asn - 1

    def _slot_start(self, asn: int) -> float:
        return asn * self.config.slot_duration_s

    def _channel_for(self, cell: Cell, asn: int) -> int:
        seq = self.config.hopping
        return seq[(asn + cell.channel_offset) % len(seq)]

    def _cell_actionable(self, cell: Cell) -> bool:
        """Worth waking for?  RX and shared cells always; dedicated TX
        cells only while a matching frame is in flight."""
        if cell.listens:
            return True
        return (self._job is not None and cell.tx
                and cell.neighbor == self._job.dest)

    def _needs_tick(self, cell: Cell) -> bool:
        """Is there a job to serve in this cell (a transmission to arm,
        or a shared-cell backoff to count down)?"""
        job = self._job
        if job is None:
            return False
        if cell.shared:
            return self._backoff > 0 or self._job_matches_shared(job)
        return cell.tx and cell.neighbor == job.dest

    def _awake(self) -> bool:
        """Radio on, or a slot-end decision pending: the next actionable
        cell must tick for real, exactly as if every cell did."""
        return (self.radio.state is not RadioState.SLEEP
                or self._slot_end_timer.armed)

    def _schedule_next_slot(self) -> None:
        """(Re)arm the tick: the next cell that needs a real one, or the
        next slotframe boundary that does, whichever begins first."""
        if not self._started:
            return
        self.sync()
        first = self._synced_asn        # the next slot to begin
        occurrence = self.schedule.next_occurrence
        if self._awake():
            asn = occurrence(first, self._cell_actionable)
        else:
            asn = occurrence(first, self._needs_tick)
            horizon = self.radio.medium.audible_until(self.radio)
            if horizon >= self._synced_until:
                # A frame is in the air: the windows it can reach are
                # real, so carrier sense at their end sees it.
                window = occurrence(first, self._cell_actionable)
                if (window is not None and self._slot_start(window) <= horizon
                        and (asn is None or window < asn)):
                    asn = window
        if self._boundary_frame != math.inf:
            boundary = int(self._boundary_frame) * self.config.slotframe_slots
            if asn is None or boundary < asn:
                asn = boundary
        if asn is None:
            self._slot_timer.cancel()
        elif not (self._slot_timer.armed and asn == self._next_asn):
            self._next_asn = asn
            self._slot_timer.start_at(self._slot_start(asn),
                                      self._tick_priority)

    def _slot_tick(self) -> None:
        if not self._started:
            return
        asn = self._next_asn
        self._catch_up(asn - 1)
        self._mark_synced(asn)
        # Boundaries skipped so far closed their MSF windows on what was
        # used before them, not on what this cell may add.
        self._account_boundaries()
        frame, slot = divmod(asn, self.config.slotframe_slots)
        if slot == MINIMAL_SLOT and frame == self._boundary_frame:
            self._frames_done = frame + 1
            self._first_boundary = False
            self._frame_boundary()
            self._plan_boundary()
        cell = self.schedule.get(slot)
        # Served iff actionable *now*: the job that made a TX cell worth
        # arming for may have finished since.
        if cell is not None and self._cell_actionable(cell):
            self._serve_cell(cell, asn, self._job_for(cell))
        self._schedule_next_slot()

    def _job_for(self, cell: Cell) -> Optional[_TxJob]:
        """The head-of-line job if this cell is to carry it now."""
        job = self._job
        if job is None:
            return None
        if cell.shared:
            if self._backoff > 0:
                self._backoff -= 1
                self._tsch_stats.shared_deferrals += 1
                return None
            return job if self._job_matches_shared(job) else None
        return job if cell.tx and cell.neighbor == job.dest else None

    def _serve_cell(self, cell: Cell, asn: int,
                    job: Optional[_TxJob] = None) -> None:
        """Open the cell's window as of its start instant (which is now
        for a tick, earlier for a window the listen plan makes real)."""
        start = self._slot_start(asn)
        self.radio.channel = self._channel_for(cell, asn)
        if cell.listens:
            self.radio.listen_from(start)
        if job is not None and cell.tx:
            self._arm_tx(job, cell)
        self._slot_end_timer.start_at(start + self._listen_s,
                                      self._end_priority)

    def _job_matches_shared(self, job: _TxJob) -> bool:
        """The shared cell carries broadcasts and any unicast that has
        no dedicated cell toward its destination yet."""
        if job.dest == BROADCAST:
            return True
        return not self.schedule.tx_cells_to(job.dest)

    def _arm_tx(self, job: _TxJob, cell: Cell) -> None:
        if cell.shared:
            delay = (self.config.tx_offset_s
                     + self._rng.uniform(0.0, self.config.shared_jitter_s))
        else:
            delay = self.config.tx_offset_s
            self._used[cell.neighbor] = self._used.get(cell.neighbor, 0) + 1
            self._tsch_stats.cells_used += 1
            self._plan_boundary()   # a use can change the window's verdict

        def fire() -> None:
            if not self._started or self._job is not job:
                return
            if cell.shared and self.radio.carrier_busy():
                # Lost the CCA race; stay in RX for the winner's frame.
                self._tsch_stats.shared_deferrals += 1
                return
            self._transmit_data(job, cell)

        self.sim.schedule(delay, fire)

    def _slot_end(self) -> None:
        if not self._started:
            return
        if (self.radio.state is RadioState.TX or self._awaiting is not None
                or self.radio.carrier_busy()):
            # Mid-exchange (long frame, pending ACK, or an incoming
            # frame still in the air): hold the radio and re-check.
            self._slot_end_timer.start_at(
                self.sim.now + self.config.ack_wait_s, self._end_priority)
            return
        self.radio.sleep()
        # Asleep with nothing pending: from here the listen plan stands
        # in for every cell without a job.
        self._schedule_next_slot()

    def _transmit_frame(self, frame: MacFrame, done=None) -> float:
        self.sync()
        airtime = super()._transmit_frame(frame, done)
        if not self._slot_end_timer.armed:
            # An ACK sent after its slot's end left the radio on with no
            # decision pending; the next actionable cell's end sleeps it.
            self._schedule_next_slot()
        return airtime

    # ------------------------------------------------------------------
    # listen plan: the windows no tick was scheduled for
    # ------------------------------------------------------------------
    def sync(self) -> None:
        if self.sim.now < self._synced_until or self._syncing:
            return
        self._catch_up(self._begun_asn())

    def frame_started(self, until: float) -> None:
        self.sync()
        # Awake, the next actionable cell is armed already; asleep, only
        # a window that begins under the frame needs a real wake-up.
        if not self._awake() and self._synced_until <= until:
            self._schedule_next_slot()

    def _mark_synced(self, asn: int) -> None:
        self._synced_asn = asn + 1
        self._synced_until = self._slot_start(asn + 1)

    def _catch_up(self, asn: int) -> None:
        """Account for every slot up to ``asn``, which has begun."""
        if asn < self._synced_asn:
            return
        self._syncing = True    # the radio reads in there are the sync
        try:
            opened = self._account_idle(asn)
        finally:
            self._syncing = False
        if opened:
            self._schedule_next_slot()      # awake now

    def _account_idle(self, asn: int) -> bool:
        """The body of :meth:`_catch_up`; True if it opened a window.

        While the radio was awake each actionable cell ticked for real,
        so there is nothing to add.  Asleep, it sat through the RX and
        shared cells of ``[_synced_asn, asn]`` untouched — else one of
        them would have been made real — and owes their LISTEN time and
        the last one's channel; if ``asn``'s own window is still open,
        that one becomes real instead.
        """
        first = self._synced_asn
        self._mark_synced(asn)
        if self._awake():
            return False
        now = self.sim.now
        nslots = self.config.slotframe_slots
        start = self._slot_start(asn)
        cell = self.schedule.get(asn % nslots)
        inside = (cell is not None and cell.listens
                  and now <= start + self._listen_s)
        upto = asn if inside else asn + 1
        windows, last, last_cell = 0, -1, None
        for idle in self.schedule.cells():
            if not idle.listens:
                continue
            # Last occurrence of this cell below ``upto``.
            at = upto - 1 - (upto - 1 - idle.slot) % nslots
            if at >= first:
                windows += (at - first) // nslots + 1
                if at > last:
                    last, last_cell = at, idle
        self.radio.slept_until(start if inside else now,
                               windows * self._listen_s)
        if last_cell is not None:
            self.radio.channel = self._channel_for(last_cell, last)
        if inside:
            self._serve_cell(cell, asn)
        return inside

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------
    def _start_job(self, job: _TxJob) -> None:
        self._job = job
        self._attempts = 0
        # A new head-of-line frame can make an earlier (dedicated TX)
        # slot actionable; recompute the wake plan.
        self._schedule_next_slot()

    def _transmit_data(self, job: _TxJob, cell: Cell) -> None:
        frame = self.data_frame(job)
        if cell.shared:
            self._tsch_stats.shared_tx += 1
            if job.dest != BROADCAST:
                self._demand[job.dest] = self._demand.get(job.dest, 0) + 1
                self._plan_boundary()   # the next boundary has an ADD to send
        else:
            self._tsch_stats.dedicated_tx += 1
        obs = self.trace.obs
        if obs is not None:
            obs.registry.inc("mac.tsch.tx", node=self.radio.node_id,
                             cell="shared" if cell.shared else "dedicated")

        def tx_done() -> None:
            if self._job is not job:
                return  # stop() ended the job while the frame was on air
            if job.dest == BROADCAST:
                self._complete(job, True)
                return
            self._awaiting = job
            self._await_shared = cell.shared
            self._ack_timer.start(self.config.ack_wait_s)

        self._transmit_frame(frame, tx_done)

    def _ack_timeout(self) -> None:
        job = self._awaiting
        self._awaiting = None
        if job is None:
            return
        self._attempts += 1
        if self._await_shared:
            self._tsch_stats.shared_failures += 1
            self._be = min(self._be + 1, self.config.shared_be_max)
            self._backoff = self._rng.randrange(2 ** self._be)
        if self._attempts > self.config.max_retries:
            self._complete(job, False)
        # Otherwise the job stays in flight; the next matching cell
        # retries it (TSCH retransmits across cells, not within one).

    def _handle_ack(self, frame: MacFrame) -> None:
        job = self._awaiting
        if job is None or frame.src != job.dest or frame.seq != job.seq:
            return
        self._ack_timer.cancel()
        self._awaiting = None
        if self._await_shared:
            self._be = self.config.shared_be_min
            self._backoff = 0
        self._complete(job, True)

    def _complete(self, job: _TxJob, ok: bool) -> None:
        self._job = None
        self._attempts = 0
        self._finish_job(job, ok)

    def _handle_data(self, frame: MacFrame) -> None:
        if frame.dst == self.radio.node_id:
            self._send_ack(frame.src, frame.seq)
        if isinstance(frame.payload, SixpMessage):
            # 6P terminates at the MAC, past the same dedup and filter as
            # data, so secured networks authenticate 6P frames too.
            frame = self._accept(frame)
            if frame is not None:
                self._on_sixp(frame.src, frame.payload)
            return
        super()._handle_data(frame)

    # ------------------------------------------------------------------
    # scheduling function (minimal MSF) + 6P transport
    # ------------------------------------------------------------------
    # ``_frame_boundary`` is due once per slotframe, at the minimal
    # cell's start.  It runs as an event only where it can act; at every
    # other boundary all it would do is count each neighbor's TX cells
    # into the MSF window (closing it with no verdict now and then),
    # which ``_account_boundaries`` does for any number of boundaries at
    # once.

    def _next_eventful_frame(self) -> float:
        """Index of the first boundary from ``_frames_done`` on at which
        ``_frame_boundary`` can do more than count (inf: none in sight)."""
        frame = self._frames_done
        if self._demand or self.sixp.inflight_count() or self._first_boundary:
            # Demand to turn into an ADD, a 6P deadline to police, or
            # the first ``mac.tsch.cells`` sample to publish.
            return frame
        due = math.inf
        window = self.config.msf_eval_cells
        for peer in self.schedule.neighbors():
            cells = len(self.schedule.tx_cells_to(peer))
            if not cells:
                continue
            # The open MSF window closes with what was used so far (a
            # later use re-plans); every window after it closes unused.
            closes = self._boundaries_to_close(peer, cells)
            elapsed = self._elapsed.get(peer, 0) + closes * cells
            if self._msf_verdict(self._used.get(peer, 0), elapsed, cells):
                due = min(due, frame + closes - 1)
            elif self._msf_verdict(0, window, cells):
                due = min(due, frame + closes + -(-window // cells) - 1)
        return due

    def _boundaries_to_close(self, peer: int, cells: int) -> int:
        """Boundaries until ``peer``'s open MSF window has seen its
        ``msf_eval_cells`` occurrences, ``cells`` per boundary."""
        left = self.config.msf_eval_cells - self._elapsed.get(peer, 0)
        return max(1, -(-left // cells))

    def _msf_verdict(self, used: int, elapsed: int, cells: int) -> int:
        """MSF's decision on a closed window: +1 add a cell, -1 delete
        one, 0 leave the ``cells`` toward this neighbor as they are."""
        utilization = used / elapsed
        if (utilization > self.config.msf_high
                and cells < self.config.max_cells_per_neighbor):
            return 1
        if utilization < self.config.msf_low and cells > 1:
            return -1
        return 0

    def _plan_boundary(self) -> None:
        """Recompute which boundary must run next; re-arm if it moved."""
        if not self._started:
            return
        self._account_boundaries()
        frame = self._next_eventful_frame()
        if frame != self._boundary_frame:
            self._boundary_frame = frame
            self._schedule_next_slot()

    def _account_boundaries(self, upto: Optional[int] = None) -> None:
        """Closed form of the boundaries below ``upto`` not yet run
        (default: every one that is due, short of the one that must
        run as an event)."""
        if upto is None:
            if self.radio.listen_plan is not self:
                return          # stopped: no boundary is due
            due = self._begun_asn() // self.config.slotframe_slots + 1
            upto = min(due, self._boundary_frame)
        skipped = upto - self._frames_done
        if skipped <= 0:
            return
        self._frames_done = upto
        window = self.config.msf_eval_cells
        for peer in self.schedule.neighbors():
            cells = len(self.schedule.tx_cells_to(peer))
            if not cells:
                continue
            self._tsch_stats.cells_elapsed += skipped * cells
            closes = self._boundaries_to_close(peer, cells)
            if skipped < closes:
                self._elapsed[peer] = (self._elapsed.get(peer, 0)
                                       + skipped * cells)
            else:
                # Windows closed on the way, each with verdict 0 (or
                # the boundary would have been an event): what is left
                # is the part of the last, still open one.
                period = -(-window // cells)
                self._elapsed[peer] = (skipped - closes) % period * cells
                self._used[peer] = 0

    def _frame_boundary(self) -> None:
        """Expire stale 6P transactions and run the MSF add/delete
        evaluation."""
        self.sixp.expire(self.sim.now)
        # Demand-triggered bootstrap: unicast that had to ride the
        # shared cell asks for a first dedicated cell to its next hop.
        for peer in sorted(self._demand):
            if self._demand.pop(peer) <= 0:
                continue
            if (not self.schedule.tx_cells_to(peer)
                    and not self.sixp.busy(peer)):
                self._initiate_add(peer)
        # Utilization pass over established dedicated TX cells.
        for peer in self.schedule.neighbors():
            cells = self.schedule.tx_cells_to(peer)
            if not cells:
                continue
            self._elapsed[peer] = self._elapsed.get(peer, 0) + len(cells)
            self._tsch_stats.cells_elapsed += len(cells)
            if self._elapsed[peer] < self.config.msf_eval_cells:
                continue
            verdict = self._msf_verdict(
                self._used.get(peer, 0), self._elapsed[peer], len(cells))
            self._elapsed[peer] = 0
            self._used[peer] = 0
            if self.sixp.busy(peer):
                continue
            if verdict > 0:
                self._initiate_add(peer)
            elif verdict < 0:
                self._initiate_delete(peer, cells[-1:])
        self._update_cell_gauge()

    def _initiate_add(self, peer: int) -> None:
        msg = self.sixp.initiate_add(peer, self.sim.now)
        self._send_sixp(peer, msg)

    def _initiate_delete(self, peer: int, victims: List[Cell]) -> None:
        msg = self.sixp.initiate_delete(peer, victims, self.sim.now)
        self._send_sixp(peer, msg)

    def _send_sixp(self, peer: int, msg: Optional[SixpMessage]) -> None:
        if msg is None:
            return
        self._tsch_stats.sixp_sent += 1
        obs = self.trace.obs
        if obs is not None:
            obs.registry.inc("mac.tsch.sixp", node=self.radio.node_id,
                             op=msg.op, step=msg.step)
        # 6P rides the normal transmit queue: it pays queue capacity,
        # airtime, and loss like any other frame, and a drop simply
        # times the transaction out.
        self.send(peer, msg, SIXP_MESSAGE_BYTES)

    def _on_sixp(self, src: int, msg: SixpMessage) -> None:
        self._tsch_stats.sixp_received += 1
        # What elapsed so far elapsed under the old schedule.
        self.sync()
        self._account_boundaries()
        reply = self.sixp.handle(src, msg, self.sim.now)
        if reply is not None:
            self._send_sixp(src, reply)
        self._update_cell_gauge()
        # New cells change the wake plan immediately.
        self._plan_boundary()
        self._schedule_next_slot()

    def _update_cell_gauge(self) -> None:
        obs = self.trace.obs
        if obs is not None:
            obs.registry.set("mac.tsch.cells",
                             float(len(self.schedule.dedicated_cells())),
                             node=self.radio.node_id)

    # ------------------------------------------------------------------
    # introspection (analysis + report dashboard)
    # ------------------------------------------------------------------
    def cell_utilization(self) -> float:
        """Lifetime used/elapsed over dedicated TX cells (MSF signal)."""
        stats = self.tsch_stats
        if stats.cells_elapsed == 0:
            return 0.0
        return stats.cells_used / stats.cells_elapsed

    def shared_contention(self) -> float:
        """Fraction of shared-cell opportunities lost to contention
        (CCA/backoff deferrals and unacknowledged unicasts)."""
        stats = self._tsch_stats
        lost = stats.shared_deferrals + stats.shared_failures
        total = stats.shared_tx + stats.shared_deferrals
        if total == 0:
            return 0.0
        return lost / total
