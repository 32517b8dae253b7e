"""TSCH-style scheduled MAC: the slot engine, MSF, and 6P's transport.

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
  adds cells above :data:`MSF_HIGH` and deletes them below
  :data:`MSF_LOW`;
- cell negotiation is a **6P-style two-step transaction**
  (:mod:`repro.net.mac.sixp`) over the node's slotframe
  (:mod:`repro.net.mac.schedule`): a dedicated TX cell always has a
  matching RX cell at the peer, and a timeout releases every
  reservation.  This module carries the messages and keeps the clock;
- **channel hopping**: the frequency of a cell is
  ``HOPPING[(ASN + channelOffset) % len(HOPPING)]``, so cells on
  different channel offsets never interfere and narrow-band interferers
  are averaged over the hop sequence.

Slot alignment is global: ASN is derived from simulation time against a
shared epoch at t=0 (the network is assumed time-synchronized, the
coordination cost §IV-B attributes to scheduled MACs), and every slot
instant is ``ASN * SLOT_DURATION_S`` — a function of the ASN alone.
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
ASN·slot + slot − guard]`` on channel ``HOPPING[(ASN + offset) % 16]``
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

Toward the :class:`~repro.net.mac.base.MacLayer` contract the class
supplies channel access only: the job in flight, its retry count, ACK
matching, timers and the stop path are the base's (``service_start`` is
dequeue, so ``mac.access`` covers the wait for a usable cell — exactly
the scheduled-MAC latency story).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.net.mac import sixp
from repro.net.mac.base import MacConfigError, MacLayer, _TxJob
from repro.net.mac.schedule import Cell, TschSchedule
from repro.net.mac.sixp import SIXP_MESSAGE_BYTES, SixpMessage, SixpPeer, TschStats
from repro.net.packet import BROADCAST, MacFrame
from repro.radio.medium import RadioState

# The 6TiSCH-minimal shape, read at run time (a test patches them).
#: The 6TiSCH hopping sequence over the 16 IEEE 802.15.4 channels
#: (11..26).  All nodes share it; a cell's frequency is
#: ``HOPPING[(ASN + channel_offset) % 16]``.
HOPPING: Tuple[int, ...] = (
    16, 17, 23, 18, 26, 15, 25, 22, 19, 11, 12, 13, 24, 14, 20, 21,
)

#: Slot of the shared minimal cell (6TiSCH-minimal: slot 0, offset 0).
MINIMAL_SLOT = 0
#: Slot length (10 ms, the 802.15.4 TSCH default template).
SLOT_DURATION_S = 0.010
#: In-slot delay before the data frame starts (TsTxOffset).
TX_OFFSET_S = 0.0021
#: Shared-cell CSMA-CA: transmission jitter window before which CCA runs,
#: so contending nodes serialize instead of colliding head-on.
SHARED_JITTER_S = 0.0012
#: How long past the frame end the sender waits for the ACK.
ACK_WAIT_S = 0.003
#: Radio-off guard before the slot boundary (avoids a sleep/wake tie with
#: the next slot's tick).
SLOT_GUARD_S = 0.0005
#: Link-layer retransmissions of one frame (across later cells).
MAX_RETRIES = 7
#: Shared-cell backoff exponent bounds: after a failed shared-cell
#: unicast the node skips ``U{0 .. 2^BE-1}`` shared occurrences.
SHARED_BE_MIN = 1
SHARED_BE_MAX = 5
#: MSF evaluation window (dedicated TX cell occurrences per neighbor)
#: and the add/delete utilization thresholds.
MSF_EVAL_CELLS = 8
MSF_HIGH = 0.75
MSF_LOW = 0.15


@dataclass(frozen=True)
class TschConfig:
    """TSCH parameters."""

    #: Slots per slotframe (101, prime, so dedicated cells precess
    #: against periodic traffic instead of phase-locking to it).
    slotframe_slots: int = 101

    def __post_init__(self) -> None:
        if self.slotframe_slots < 2:
            raise MacConfigError(
                f"TschConfig.slotframe_slots must be >= 2, "
                f"got {self.slotframe_slots!r}")


#: Slot events run before anything else due at the same instant (a slot
#: is decided the moment it begins; a frame handed over at that very
#: instant is late for it), each node's slot end before its next tick,
#: node by node: an order that is a function of (ASN, node id), whatever
#: subset of the events the listen plan left unscheduled.
_SLOT_PRIORITY_BASE = -(1 << 40)


class TschMac(MacLayer):
    """Slotted, scheduled channel access over a shared slotframe."""

    COUNTED = MacLayer.COUNTED + (
        ("mac.tsch.tx", {"cell": "shared"}, "_tsch_stats.shared_tx"),
        ("mac.tsch.tx", {"cell": "dedicated"}, "_tsch_stats.dedicated_tx"),
    )

    def __init__(self, radio, config: Optional[TschConfig] = None) -> None:
        super().__init__(radio)
        self.config = config if config is not None else TschConfig()
        self._tsch_stats = TschStats()
        self.schedule = TschSchedule(self.config.slotframe_slots)
        self.schedule.add(Cell(MINIMAL_SLOT, 0, BROADCAST,
                               tx=True, rx=True, shared=True))
        self.sixp = SixpPeer(radio.node_id, self.schedule, self._rng,
                             stats=self._tsch_stats)
        #: Was the frame whose ACK is awaited sent in the shared cell?
        self._await_shared = False
        self._be = SHARED_BE_MIN
        self._backoff = 0
        #: How long a cell's window keeps the radio on.
        self._listen_s = SLOT_DURATION_S - SLOT_GUARD_S
        self._end_priority = _SLOT_PRIORITY_BASE + 2 * radio.node_id
        self._tick_priority = self._end_priority + 1
        self._next_asn = 0
        #: Every ASN below this is accounted for: served by a real tick,
        #: or charged to the radio in closed form.  ``_synced_until`` is
        #: when that ASN begins: until then there is nothing to sync.
        self._synced_asn = 0
        self._synced_until = 0.0
        self._slot_timer = self._timer(self._slot_tick)
        self._slot_end_timer = self._timer(self._slot_end)
        self._ack_timer = self._timer(self._ack_timeout)
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
        return int(self.sim.now / SLOT_DURATION_S + 1e-6)

    def _begun_asn(self) -> int:
        """The last slot whose start instant is not in the future."""
        asn = self._current_asn()
        return asn if self._slot_start(asn) <= self.sim.now else asn - 1

    def _slot_start(self, asn: int) -> float:
        return asn * SLOT_DURATION_S

    def _channel_for(self, cell: Cell, asn: int) -> int:
        return HOPPING[(asn + cell.channel_offset) % len(HOPPING)]

    def _cell_actionable(self, cell: Cell) -> bool:
        """Worth waking for?  RX and shared cells always; dedicated TX
        cells only while a matching frame is in flight."""
        if cell.listens:
            return True
        job = self._in_flight
        return job is not None and cell.tx and cell.neighbor == job.dest

    def _needs_tick(self, cell: Cell) -> bool:
        """Is there a job to serve in this cell (a transmission to arm,
        or a shared-cell backoff to count down)?"""
        job = self._in_flight
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
        job = self._in_flight
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
        return job.dest not in self.schedule.tx_cells()

    def _arm_tx(self, job: _TxJob, cell: Cell) -> None:
        if cell.shared:
            delay = TX_OFFSET_S + self._rng.uniform(0.0, SHARED_JITTER_S)
        else:
            delay = TX_OFFSET_S
            self._used[cell.neighbor] = self._used.get(cell.neighbor, 0) + 1
            self._tsch_stats.cells_used += 1
            self._plan_boundary()   # a use can change the window's verdict

        def fire() -> None:
            if self._in_flight is not job:
                return  # the job ended before its cell's TX offset
            if cell.shared and self.radio.carrier_busy():
                # Lost the CCA race; stay in RX for the winner's frame.
                self._tsch_stats.shared_deferrals += 1
                return
            self._transmit_data(job, cell)

        self.sim.schedule(delay, fire)

    def _slot_end(self) -> None:
        if (self.radio.state is RadioState.TX or self._ack_timer.armed
                or self.radio.carrier_busy()):
            # Mid-exchange (long frame, pending ACK, or an incoming
            # frame still in the air): hold the radio and re-check.
            self._slot_end_timer.start_at(
                self.sim.now + ACK_WAIT_S, self._end_priority)
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
        if self.sim.now < self._synced_until:
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
        if asn >= self._synced_asn and self._account_idle(asn):
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
        for idle in self.schedule.listening_cells():
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

        def tx_done() -> None:
            if self._in_flight is not job:
                return  # stop() ended the job while the frame was on air
            if job.dest == BROADCAST:
                self._finish_job(job, True)
                return
            self._await_shared = cell.shared
            self._ack_timer.start(ACK_WAIT_S)

        self._transmit_frame(frame, tx_done)

    def _ack_timeout(self) -> None:
        job = self._in_flight
        job.retries += 1
        if self._await_shared:
            self._tsch_stats.shared_failures += 1
            self._be = min(self._be + 1, SHARED_BE_MAX)
            self._backoff = self._rng.randrange(2 ** self._be)
        if job.retries > MAX_RETRIES:
            self._finish_job(job, False)
        # Otherwise the job stays in flight; the next matching cell
        # retries it (TSCH retransmits across cells, not within one).

    def _handle_ack(self, job: _TxJob) -> None:
        if not self._ack_timer.armed:
            return
        self._ack_timer.cancel()
        if self._await_shared:
            self._be = SHARED_BE_MIN
            self._backoff = 0
        self._finish_job(job, True)

    def _deliver(self, frame: MacFrame) -> None:
        if isinstance(frame.payload, SixpMessage):
            # 6P terminates at the MAC, past the same dedup and filter as
            # data, so secured networks authenticate 6P frames too.
            self._on_sixp(frame.src, frame.payload)
        else:
            super()._deliver(frame)

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
        window = MSF_EVAL_CELLS
        for peer, tx_cells in self.schedule.tx_cells().items():
            cells = len(tx_cells)
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
        ``MSF_EVAL_CELLS`` occurrences, ``cells`` per boundary."""
        left = MSF_EVAL_CELLS - self._elapsed.get(peer, 0)
        return max(1, -(-left // cells))

    def _msf_verdict(self, used: int, elapsed: int, cells: int) -> int:
        """MSF's decision on a closed window: +1 add a cell, -1 delete
        one, 0 leave the ``cells`` toward this neighbor as they are."""
        utilization = used / elapsed
        if utilization > MSF_HIGH and cells < sixp.MAX_CELLS_PER_NEIGHBOR:
            return 1
        if utilization < MSF_LOW and cells > 1:
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
        window = MSF_EVAL_CELLS
        for peer, tx_cells in self.schedule.tx_cells().items():
            cells = len(tx_cells)
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
            if self._elapsed[peer] < MSF_EVAL_CELLS:
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
    # introspection (the layered benchmark)
    # ------------------------------------------------------------------
    def cell_utilization(self) -> float:
        """Lifetime used/elapsed over dedicated TX cells (MSF signal)."""
        stats = self.tsch_stats
        if stats.cells_elapsed == 0:
            return 0.0
        return stats.cells_used / stats.cells_elapsed
