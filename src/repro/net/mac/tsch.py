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
coordination cost §IV-B attributes to scheduled MACs), which also makes
schedules seed-deterministic — every random choice (candidate slots,
channel offsets, shared-cell jitter/backoff) draws from the node's
``mac.<id>`` substream.

The class plugs into the :class:`~repro.net.mac.base.MacLayer` contract
unchanged: same ``mac.job`` spans split at ``service_start`` (here the
split point is dequeue, so ``mac.access`` covers the wait for a usable
cell — exactly the scheduled-MAC latency story), same ``mac.tx``
instruments, same queue/dedup/ACK machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

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
        self._reserved: Dict[int, int] = {}    # slot -> holding txn

    # -- queries -------------------------------------------------------
    def get(self, slot: int) -> Optional[Cell]:
        return self._cells.get(slot)

    def cells(self) -> List[Cell]:
        return [self._cells[s] for s in sorted(self._cells)]

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

    def remove(self, slot: int) -> Cell:
        if slot not in self._cells:
            raise SlotConflictError(f"slot {slot} not scheduled")
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


class TschMac(MacLayer):
    """Slotted, scheduled channel access over a shared slotframe."""

    def __init__(self, sim, radio, config: Optional[TschConfig] = None,
                 **kwargs) -> None:
        super().__init__(sim, radio, **kwargs)
        self.config = config if config is not None else TschConfig()
        self.config.validate()
        self.tsch_stats = TschStats()
        self.schedule = TschSchedule(self.config.slotframe_slots)
        self.schedule.add(Cell(MINIMAL_SLOT, 0, BROADCAST,
                               tx=True, rx=True, shared=True))
        self.sixp = SixpPeer(radio.node_id, self.schedule, self._rng,
                             self.config, stats=self.tsch_stats)
        self._job: Optional[_TxJob] = None
        self._attempts = 0
        self._awaiting: Optional[_TxJob] = None
        self._await_shared = False
        self._be = self.config.shared_be_min
        self._backoff = 0
        self._next_asn = 0
        self._slot_timer = Timer(sim, self._slot_tick)
        self._slot_end_timer = Timer(sim, self._slot_end)
        self._ack_timer = Timer(sim, self._ack_timeout)
        #: Unicast demand seen on the shared cell since the last
        #: slotframe boundary, per neighbor (MSF's trigger signal).
        self._demand: Dict[int, int] = {}
        #: MSF windowed used/elapsed per neighbor.
        self._elapsed: Dict[int, int] = {}
        self._used: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _on_start(self) -> None:
        self._schedule_next_slot()

    def _on_stop(self) -> None:
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
    def _current_asn(self) -> int:
        # The slack absorbs float error in slot-boundary event times; it
        # is ~1e-8 s against a 10 ms slot, far below any event spacing.
        return int(self.sim.now / self.config.slot_duration_s + 1e-6)

    def _channel_for(self, cell: Cell, asn: int) -> int:
        seq = self.config.hopping
        return seq[(asn + cell.channel_offset) % len(seq)]

    def _cell_actionable(self, cell: Cell) -> bool:
        """Worth waking for?  RX and shared cells always; dedicated TX
        cells only while a matching frame is in flight."""
        if cell.rx or cell.shared:
            return True
        return (self._job is not None and cell.tx
                and cell.neighbor == self._job.dest)

    def _schedule_next_slot(self) -> None:
        if not self._started:
            return
        asn_now = self._current_asn()
        nslots = self.config.slotframe_slots
        for step in range(1, nslots + 1):
            asn = asn_now + step
            cell = self.schedule.get(asn % nslots)
            if cell is not None and self._cell_actionable(cell):
                self._next_asn = asn
                self._slot_timer.start(
                    asn * self.config.slot_duration_s - self.sim.now)
                return
        # Unreachable in practice: the minimal cell is always present.

    def _slot_tick(self) -> None:
        if not self._started:
            return
        asn = self._next_asn
        slot = asn % self.config.slotframe_slots
        if slot == MINIMAL_SLOT:
            self._frame_boundary()
        cell = self.schedule.get(slot)
        if cell is not None:
            self._serve_cell(cell, asn)
        self._schedule_next_slot()

    def _serve_cell(self, cell: Cell, asn: int) -> None:
        self.radio.channel = self._channel_for(cell, asn)
        job = self._job
        if job is not None:
            if cell.shared:
                if self._backoff > 0:
                    self._backoff -= 1
                    self.tsch_stats.shared_deferrals += 1
                    job = None
                elif not self._job_matches_shared(job):
                    job = None
            elif not (cell.tx and cell.neighbor == job.dest):
                job = None
        if cell.rx or cell.shared:
            self.radio.set_listening()
        if job is not None and cell.tx:
            self._arm_tx(job, cell)
        self._slot_end_timer.start(
            self.config.slot_duration_s - self.config.slot_guard_s)

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
            self.tsch_stats.cells_used += 1

        def fire() -> None:
            if not self._started or self._job is not job:
                return
            if cell.shared and self.radio.carrier_busy():
                # Lost the CCA race; stay in RX for the winner's frame.
                self.tsch_stats.shared_deferrals += 1
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
            self._slot_end_timer.start(self.config.ack_wait_s)
            return
        self.radio.sleep()

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
            self.tsch_stats.shared_tx += 1
            if job.dest != BROADCAST:
                self._demand[job.dest] = self._demand.get(job.dest, 0) + 1
        else:
            self.tsch_stats.dedicated_tx += 1
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
            self.tsch_stats.shared_failures += 1
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
    def _frame_boundary(self) -> None:
        """Once per slotframe (at the minimal cell): expire stale 6P
        transactions and run the MSF add/delete evaluation."""
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
            self.tsch_stats.cells_elapsed += len(cells)
            if self._elapsed[peer] < self.config.msf_eval_cells:
                continue
            used = self._used.get(peer, 0)
            utilization = used / self._elapsed[peer]
            self._elapsed[peer] = 0
            self._used[peer] = 0
            if self.sixp.busy(peer):
                continue
            if (utilization > self.config.msf_high
                    and len(cells) < self.config.max_cells_per_neighbor):
                self._initiate_add(peer)
            elif utilization < self.config.msf_low and len(cells) > 1:
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
        self.tsch_stats.sixp_sent += 1
        obs = self.trace.obs
        if obs is not None:
            obs.registry.inc("mac.tsch.sixp", node=self.radio.node_id,
                             op=msg.op, step=msg.step)
        # 6P rides the normal transmit queue: it pays queue capacity,
        # airtime, and loss like any other frame, and a drop simply
        # times the transaction out.
        self.send(peer, msg, SIXP_MESSAGE_BYTES)

    def _on_sixp(self, src: int, msg: SixpMessage) -> None:
        self.tsch_stats.sixp_received += 1
        reply = self.sixp.handle(src, msg, self.sim.now)
        if reply is not None:
            self._send_sixp(src, reply)
        self._update_cell_gauge()
        # New cells change the wake plan immediately.
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
        if self.tsch_stats.cells_elapsed == 0:
            return 0.0
        return self.tsch_stats.cells_used / self.tsch_stats.cells_elapsed

    def shared_contention(self) -> float:
        """Fraction of shared-cell opportunities lost to contention
        (CCA/backoff deferrals and unacknowledged unicasts)."""
        lost = (self.tsch_stats.shared_deferrals
                + self.tsch_stats.shared_failures)
        total = self.tsch_stats.shared_tx + self.tsch_stats.shared_deferrals
        if total == 0:
            return 0.0
        return lost / total
