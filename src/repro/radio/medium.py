"""The shared wireless broadcast medium.

All radios attached to a :class:`Medium` share spectrum.  A transmission
is delivered to a receiver iff, for the whole frame airtime, the
receiver was listening on the frame's channel, no colliding transmission
was audible above the capture margin, and a Bernoulli draw against the
link's PRR succeeds.  Carrier sense (CCA) consults the same picture, so
MAC protocols see a consistent channel.

Radios also account the time they spend in each state; the device energy
model (:mod:`repro.devices.energy`) converts those residencies into
charge drawn, which drives the funnel-effect and lifetime experiments.

Scaling: the spatial grid index
-------------------------------
With tens of thousands of radios, "who can hear a sender" cannot visit
every radio.  Every link model declares a hard audible-range bound
(``max_audible_range_m``, :mod:`repro.radio.propagation`), so the medium
buckets its radios into square cells at least that large: a radio that
could be heard is in one of the sender's nine surrounding cells.  A
neighbourhood is one plain-Python pass over those radios, reading each
one's own ``position`` tuple (the medium stores no second copy): cut to
the sender's own disc (the bound at *its* power, times
``_CELL_MARGIN``, a squared-distance compare in IEEE doubles), drop the
sender and any blocked link, one model call for the RSSIs, the
threshold, one sort by ``(rssi desc, node_id)``, one model call for the
PRRs.  Nothing here imports numpy; a model that vectorises does so
inside its own methods (:class:`~repro.radio.propagation.LogDistanceModel`),
so a unit-disk run never loads it.

The index is an *accelerator, not an approximation*: the disc is a
superset of the audible set, every candidate is evaluated with the same
model math, and a link's value does not depend on which others share its
call — so the medium reproduces a full scan's event trace byte for byte
(``tests/conftest.py::FullScanMedium`` is that reference).

Collisions: arbitrated once per frame
-------------------------------------
A sender's effect on its surroundings is one cached
:class:`_Neighborhood`: the ``radios`` and ``prr`` columns and
``rssi_by_id``, a ``node_id -> rssi`` map filled in column order, so
its values *are* the RSSI column (stored once), blocked and inaudible
links left out.  Delivery walks ``radios``, the map's values and
``prr`` side by side (``audible_from`` is the first two).  CCA and
collision arbitration never evaluate a link: "how loud is that
transmission at radio ``r``" is its sender's
``rssi_by_id.get(r.node_id)``.  The frames that can overlap anything
are one end-time heap, ``_active``; CCA scans it, and when a frame ends the
transmissions that overlapped it in time and channel are resolved from
it *once* (:meth:`Medium._interferers`), loudest at the sender first.
Each listening receiver walks their maps, usually an empty list, and
stops at the first interferer inside the capture margin: rounded
subtraction is monotone, so ``rssi - other < margin`` holds for some
interferer exactly when it holds for the strongest, in any order.

Delivery walks the columns once, fates in their order: disabled or
off-channel (skipped), slept through (``radio.miss``), captured
(``radio.collision``), one PRR draw (``radio.drop`` or ``radio.rx``).
Liveness is one compare, ``_listen_since > start``: leaving LISTEN sets
``_listen_since`` to ``inf``.  While no outcome is watched
(:meth:`TraceLog.watched`) and the frame has no span, a loss whose
category has a counter is tallied per frame and added to
``trace.counters`` before each ``on_receive`` upcall and at the end (a
category's first loss and a reception are counted as they happen): a
reader anywhere sees what per-receiver counting would have left.  Only
an upcall or a watched emit's subscriber can change who watches or the
world, so both are looked at again only after one.

The world is a fixed installation: a radio's ``position`` and
``tx_power_dbm`` are set when it is built (NaN or infinite is refused:
:class:`PositionError`, :class:`PowerError`) and read-only after, radios
never detach, and only an attach or a link filter changes it.

Cache invalidation rules (the part that must not rot):

- The neighborhoods are the only place signal strengths are kept (the
  link model keeps none: a shadowing draw is recomputed from ``(seed,
  link key)`` on every rebuild).  Every read — delivery, CCA,
  arbitration, :meth:`Medium.rssi_between` — goes through
  :meth:`Medium._neighborhood`, which builds the columns and
  ``rssi_by_id`` in one pass, so an interferer's map is never staler
  than its ``audible_from``.
- An attach (the new radio may be inside anyone's disc) and
  ``set_link_filter`` drop every entry; none is ever mutated.
- A frame walks the columns current when it was *sent*; its
  interferers' maps are the ones current when it *ends*.

Listen plans: idle listening without events
-------------------------------------------
A scheduled MAC wakes its radio in windows nobody talks in far more
often than in windows somebody does.  Such a MAC may register a *listen
plan* with its radio (:meth:`Radio.set_listen_plan`; the plan's two
methods are declared on :class:`repro.net.mac.base.MacLayer`) and then
schedule no events at all for a window it has nothing to send in: while
the radio sleeps with no timer pending, where it listens is a pure
function of time the plan can evaluate later.

- **The sync rule.**  ``plan.sync()`` brings the radio's real fields
  (``state``, ``channel``, the residencies ``sleep_s``, ``listen_s`` and
  ``tx_s``, ``_listen_since``) up to ``sim.now``.  A planned radio is a
  plain :class:`Radio` with plain fields; what reads them syncs it
  first: the radio's own state changes (``_set_state``,
  ``set_listening``, ``sleep``, ``flush_state_time``), the sender in :meth:`Medium.transmit`, the
  sensing radio in :meth:`Medium.carrier_busy` and each planned
  receiver in ``_deliver`` — so they see what an event-per-window MAC
  would have left there, including the *stale channel* of a sleeping
  radio, which decides between a silent skip and a ``radio.miss``.
  Anything else calls :meth:`Radio.sync` before it reads.  At these
  points an unplanned radio pays one ``listen_plan`` test; ``_deliver``
  pays nothing per receiver while no radio on the medium has a plan.
- **What is charged in closed form.**  Windows that elapsed untouched:
  ``n * window`` seconds of LISTEN, the rest of the interval SLEEP, and
  the channel the last of them hopped to.
- **What makes a window real.**  A frame: :meth:`Medium.transmit` calls
  ``plan.frame_started(end)`` on every planned radio in the sender's
  neighbourhood (jam frames too: they are sensed, never received).  The
  plan makes real the window it is in (LISTEN since its start, its end
  timer armed) and a real wake-up for the next window that begins
  before :meth:`Medium.audible_until`, the end of the last audible frame
  in flight; from there delivery, capture, ACKs and carrier-sense holds
  run on real state.  A read inside a window makes it real the same
  way, and a link-filter change asks every plan again (a frame already
  in flight may be audible somewhere new).
- **Why tie order is canonical.**  With most wake-ups never scheduled,
  FIFO order among same-instant events would depend on which windows
  became real, so plans give slot events a ``priority`` that is a
  function of the node id: the order frames go on the air, and so the
  order of PRR draws on lossy links, is a function of (slot, node).
"""

from __future__ import annotations

import enum
import heapq
import math
from array import array
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.radio.propagation import LinkQualityModel, Position
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceLog

#: 802.15.4 PHY: 250 kbit/s.
BITRATE_BPS = 250_000
#: Preamble + SFD + PHY header + MAC footer, charged to every frame.
PHY_OVERHEAD_BYTES = 11
#: RSSI below this is inaudible: neither receivable nor interfering.
AUDIBLE_THRESHOLD_DBM = -100.0
#: Clear-channel-assessment threshold.
CCA_THRESHOLD_DBM = -85.0
#: A frame survives a collision if it is this much stronger than the
#: strongest interferer (capture effect).
CAPTURE_MARGIN_DB = 6.0

#: The categories the medium counts in place when nobody watches them.
_CATEGORIES = ("radio.tx", "radio.miss", "radio.collision", "radio.drop",
               "radio.rx")
#: The four a frame's delivery counts, one per receiver.
_OUTCOMES = frozenset(_CATEGORIES[1:])

#: Grid cells are inflated this much over the model's range bound so a
#: borderline-audible link can never straddle more than one cell edge.
_CELL_MARGIN = 1.01
#: A cell and its eight neighbours, as offsets.
_NINE_CELLS = tuple((dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1))


class RadioState(enum.Enum):
    """Operating state of a radio transceiver."""

    SLEEP = "sleep"
    LISTEN = "listen"
    TX = "tx"


# The members, read once: ``RadioState.LISTEN`` goes through the Enum
# metaclass's ``__getattr__`` hook, ≈90 ns a read on CPython 3.11, and
# the state machine below compares against them on every frame.
_SLEEP, _LISTEN, _TX = RadioState.SLEEP, RadioState.LISTEN, RadioState.TX


@dataclass(slots=True)
class Frame:
    """A physical-layer frame.

    ``channel`` is the 802.15.4 channel the frame is sent on; wide-band
    interferers (Wi-Fi) instead set ``jam_channels`` to the set of
    802.15.4 channels they blanket — such frames are never *received*,
    only interfere.
    """

    payload: Any
    size_bytes: int
    channel: int
    sender: int
    jam_channels: FrozenSet[int] = frozenset()

    @property
    def airtime(self) -> float:
        """Frame airtime in seconds at the 802.15.4 PHY rate."""
        return (PHY_OVERHEAD_BYTES + self.size_bytes) * 8 / BITRATE_BPS

    def interferes_with(self, channel: int) -> bool:
        """True if the frame occupies ``channel`` (directly or by jamming)."""
        return channel == self.channel or channel in self.jam_channels


@dataclass(slots=True)
class _Transmission:
    """One frame on the air, kept until nothing can overlap it any more."""

    radio: "Radio"
    frame: Frame
    start: float
    end: float
    #: The ``radio.airtime`` span (repro.obs); None when untraced.
    span: Any
    #: Link-layer addressee of a traced frame (duck-typed from the
    #: payload's ``dst``); per-receiver outcome events are recorded
    #: only at this node, so overhearing neighbors don't flood the tree.
    addressee: Any


_ActiveItem = Tuple[float, int, _Transmission]


@dataclass(slots=True)
class _Neighborhood:
    """A sender's cached audible set as columns: link ``k`` is ``radios[k]``
    heard at the ``k``-th value of ``rssi_by_id`` with reception
    probability ``prr[k]``, in ``audible_from`` order, so a frame skips
    the per-link logistic.  ``rssi_by_id`` maps the same radios' ids to
    their RSSI, inserted in column order, so its values *are* the RSSI
    column; CCA and collision arbitration look links up in it (absent =
    blocked or inaudible)."""

    radios: List["Radio"]
    prr: "array[float]"
    rssi_by_id: Dict[int, float]


class PositionError(ValueError):
    """A radio placed at a NaN or infinite coordinate — it would key the
    link model's draws and never equal its own grid cell."""


class PowerError(ValueError):
    """A radio given a NaN or infinite transmit power — it would size
    the grid cells and cut the sender's disc by that value."""


def _placed(node_id: int, position: Position) -> Position:
    x, y = position
    if not (math.isfinite(x) and math.isfinite(y)):
        raise PositionError(f"radio {node_id}: position {position!r}")
    # Two floats, so the disc cut is IEEE double arithmetic whatever
    # numeric types came in; a float tuple is kept as given.
    if type(x) is float and type(y) is float and type(position) is tuple:
        return position
    return (float(x), float(y))


def _powered(node_id: int, tx_power_dbm: float) -> float:
    if not math.isfinite(tx_power_dbm):
        raise PowerError(f"radio {node_id}: tx power {tx_power_dbm!r} dBm")
    return tx_power_dbm


class Radio:
    """One node's transceiver, attached to a :class:`Medium`.

    The MAC layer drives the state machine via :meth:`set_listening` /
    :meth:`sleep` / :meth:`transmit` and receives frames through the
    ``on_receive(frame, rssi_dbm)`` callback.
    """

    #: Link-layer addresses this radio recognises: ``_deliver`` hands up
    #: a frame whose payload names a ``dst`` only if it is in the set
    #: (it still counts every reception).  None, the class default a
    #: bare radio keeps without a per-instance copy, hands up every
    #: frame.
    rx_addresses: Optional[FrozenSet[Any]] = None

    def __init__(
        self,
        medium: "Medium",
        node_id: int,
        position: Position,
        tx_power_dbm: float = 0.0,
        channel: int = 26,
    ) -> None:
        self.medium = medium
        self.node_id = node_id
        self._position = _placed(node_id, position)
        self._tx_power_dbm = _powered(node_id, tx_power_dbm)
        self.channel = channel
        self.on_receive: Optional[Callable[[Frame, float], None]] = None
        self.enabled = True
        self.state = _SLEEP
        #: Seconds spent in each state up to ``_state_since``: three
        #: floats, not a ``{state: seconds}`` dict per radio.
        self.sleep_s = self.listen_s = self.tx_s = 0.0
        self._state_since = medium.sim.now
        self._listen_since = math.inf
        #: Set by :meth:`set_listen_plan`; None means every field above
        #: is always current.
        self.listen_plan: Any = None
        self.frames_sent = 0
        self.frames_received = 0
        self.bytes_sent = 0
        medium._attach(self)

    # ------------------------------------------------------------------
    # geometry: fixed at construction
    # ------------------------------------------------------------------
    @property
    def position(self) -> Position:
        return self._position

    @property
    def tx_power_dbm(self) -> float:
        return self._tx_power_dbm

    # ------------------------------------------------------------------
    # state machine
    # ------------------------------------------------------------------
    def _set_state(self, state: RadioState) -> None:
        # Radio.sync, inlined: every frame changes its sender's state twice.
        if self.listen_plan is not None:
            self.listen_plan.sync()
        now = self.medium.sim.now
        old = self.state
        if old is _LISTEN:
            self.listen_s += now - self._state_since
        elif old is _SLEEP:
            self.sleep_s += now - self._state_since
        else:
            self.tx_s += now - self._state_since
        self._state_since = now
        if state is not _LISTEN:
            self._listen_since = math.inf
        elif old is not _LISTEN:
            self._listen_since = now
        self.state = state

    def set_listening(self) -> None:
        """Enter receive mode (idle listening draws real current).

        A no-op while transmitting: the radio returns to LISTEN when the
        in-flight frame ends, so the request is already satisfied.
        """
        self.sync()
        if self.state is _TX:
            return
        if self.state is not _LISTEN:
            self._set_state(_LISTEN)

    def sleep(self) -> None:
        """Power the transceiver down."""
        self.sync()
        if self.state is _TX:
            raise RuntimeError(f"radio {self.node_id} busy transmitting")
        if self.state is not _SLEEP:
            self._set_state(_SLEEP)

    def flush_state_time(self) -> None:
        """Account time up to now into ``sleep_s``, ``listen_s`` and ``tx_s``."""
        self.sync()
        self._set_state(self.state)

    # ------------------------------------------------------------------
    # listen plan (see the module docstring)
    # ------------------------------------------------------------------
    def sync(self) -> None:
        """Bring ``state``, ``channel`` and the residencies up to now
        (the sync rule, see the module docstring); a no-op without a
        plan."""
        if self.listen_plan is not None:
            self.listen_plan.sync()

    def set_listen_plan(self, plan: Any) -> None:
        """Register (or clear, with None) the MAC's listen plan."""
        self.medium._planned += (plan is not None) - (self.listen_plan is not None)
        self.listen_plan = plan

    def slept_until(self, until: float, listened_s: float) -> None:
        """Plan side: the radio slept from its last state change to
        ``until``, except ``listened_s`` seconds of windows nothing
        touched."""
        self.sleep_s += until - self._state_since - listened_s
        self.listen_s += listened_s
        self._state_since = until

    def listen_from(self, start: float) -> None:
        """Plan side: LISTEN as of ``start <= now``, the beginning of
        the window being made real.  Like :meth:`set_listening`, a no-op
        unless the radio sleeps."""
        if self.state is _SLEEP:
            self.sleep_s += start - self._state_since
            self._state_since = self._listen_since = start
            self.state = _LISTEN

    # ------------------------------------------------------------------
    # channel access
    # ------------------------------------------------------------------
    def carrier_busy(self) -> bool:
        """Clear channel assessment on this radio's channel."""
        return self.medium.carrier_busy(self)

    def transmit(
        self,
        payload: Any,
        size_bytes: int,
        done: Optional[Callable[[], None]] = None,
    ) -> float:
        """Send a frame; returns its airtime.

        The radio enters TX for the airtime and then returns to LISTEN
        (the MAC decides whether to sleep afterwards).  ``done`` fires
        when the transmission completes.
        """
        self.sync()
        frame = Frame(
            payload=payload,
            size_bytes=size_bytes,
            channel=self.channel,
            sender=self.node_id,
        )
        return self.medium.transmit(self, frame, done)


class Medium:
    """The shared spectrum connecting all attached radios: ``sim`` is
    the kernel (time and randomness), ``model`` maps geometry to RSSI
    and PRR, and ``trace`` counts the ``radio.tx/miss/collision/drop/rx``
    records."""

    def __init__(self, sim: Simulator, model: LinkQualityModel,
                 trace: TraceLog) -> None:
        self.sim = sim
        self.trace = trace
        self.radios: Dict[int, Radio] = {}
        #: Min-heap of ``(end, seq, transmission)``: recent and in-flight
        #: transmissions, pruned lazily (see :meth:`_prune_active`).
        self._active: List[_ActiveItem] = []
        self._active_seq = 0
        self._max_airtime = 0.0
        self._rng = sim.substream("radio.medium")
        #: Optional fault hook: ``(sender_id, receiver_id) -> True`` cuts
        #: the link (partition experiments).  Set via set_link_filter.
        self._link_filter: Optional[Callable[[int, int], bool]] = None
        self._neighborhoods: Dict[int, _Neighborhood] = {}
        #: Bumped by an attach or a link filter: :meth:`_deliver`
        #: re-resolves a frame's interferers when an upcall bumped it.
        self._world_version = 0
        #: ``cell -> [radio, ...]``, in attach order.
        self._grid: Dict[Tuple[int, int], List[Radio]] = {}
        self._cell_size = 0.0
        self._grid_max_tx = 0.0
        #: Radios with a listen plan; zero skips every plan hook.
        self._planned = 0
        #: Which of ``_CATEGORIES`` the trace watches, as of its version
        #: ``_watch_version`` (see :meth:`_rewatch`).
        self._watched: FrozenSet[str] = frozenset()
        self._watch_version = -1
        self._model = model
        self._rebuild_grid()

    @property
    def model(self) -> LinkQualityModel:
        """The link-quality model, bound for the medium's lifetime."""
        return self._model

    # ------------------------------------------------------------------
    # the spatial grid
    # ------------------------------------------------------------------
    def _rebuild_grid(self) -> None:
        """(Re)derive the cell size from the range bound and re-bucket."""
        self._cell_size = max(self._reach_m(self._grid_max_tx), 1.0)
        self._grid = {}
        for radio in self.radios.values():
            self._grid.setdefault(self._cell_of(radio._position), []).append(radio)

    def _reach_m(self, tx_power_dbm: float) -> float:
        """The model's audible-range bound at this power, inflated by
        ``_CELL_MARGIN``; a model that gives no finite positive bound
        cannot be indexed and is refused."""
        range_m = self._model.max_audible_range_m(
            tx_power_dbm, AUDIBLE_THRESHOLD_DBM)
        if range_m is None or not 0.0 < range_m < math.inf:
            raise ValueError(
                f"link model {self._model!r} gives no finite audible range "
                f"at {tx_power_dbm} dBm: {range_m!r}")
        return range_m * _CELL_MARGIN

    def _cell_of(self, position: Position) -> Tuple[int, int]:
        size = self._cell_size
        return (int(position[0] // size), int(position[1] // size))

    def grid_info(self) -> Dict[str, Any]:
        """Introspection for benchmarks and tests: index shape and caches."""
        return {
            "spatial_index": True,
            "cell_size_m": self._cell_size,
            "cells": len(self._grid),
            "radios": len(self.radios),
            # Directed-link RSSI values held: the maps are the cache.
            "rssi_cache": sum(len(entry.rssi_by_id)
                              for entry in self._neighborhoods.values()),
            "neighborhoods": len(self._neighborhoods),
        }

    # ------------------------------------------------------------------
    # faults
    # ------------------------------------------------------------------
    def set_link_filter(self, blocked: Optional[Callable[[int, int], bool]]) -> None:
        """Install (or clear, with None) a link-blocking predicate.

        Blocked links carry nothing: no frames, no carrier, no
        interference — the physical-cut abstraction the partition
        experiments need.
        """
        self._link_filter = blocked
        self._world_version += 1
        self._neighborhoods.clear()
        if self._planned:
            # A frame in flight may now be audible where it was not, so
            # every listen plan looks again.
            until = max((end for end, _, _ in self._active), default=0.0)
            if until > self.sim.now:
                for radio in list(self.radios.values()):
                    if radio.listen_plan is not None:
                        radio.listen_plan.frame_started(until)

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    def _attach(self, radio: Radio) -> None:
        if radio.node_id in self.radios:
            raise ValueError(f"duplicate radio id {radio.node_id}")
        # Grow the grid when this power exceeds its sizing basis — before
        # the radio is attached: a regrown grid buckets only the radios
        # already attached, and this one is bucketed below.
        if radio._tx_power_dbm > self._grid_max_tx:
            self._grid_max_tx = radio._tx_power_dbm
            if self._reach_m(self._grid_max_tx) > self._cell_size:
                self._rebuild_grid()
        self.radios[radio.node_id] = radio
        self._world_version += 1
        self._neighborhoods.clear()
        self._grid.setdefault(self._cell_of(radio._position), []).append(radio)

    def rssi_between(self, sender: Radio, receiver: Radio) -> float:
        """RSSI of ``sender`` as heard by ``receiver``."""
        rssi = self._neighborhood(sender).rssi_by_id.get(receiver.node_id)
        if rssi is None:
            # Blocked or inaudible links are left out of the map; the
            # physical signal strength is still the model's to say.
            rssi = self._model.rssi_dbm(
                sender._position, [receiver._position],
                sender._tx_power_dbm)[0]
        return rssi

    def audible_from(self, sender: Radio) -> List[Tuple[Radio, float]]:
        """Radios that can hear ``sender`` at all, with their RSSI, by
        ``(rssi descending, node_id)``: delivery order is a property of
        the radio environment, not of attach order, so attaching radios
        in another order cannot perturb a seeded run."""
        entry = self._neighborhood(sender)
        return list(zip(entry.radios, entry.rssi_by_id.values()))

    def _neighborhood(self, sender: Radio) -> _Neighborhood:
        entry = self._neighborhoods.get(sender.node_id)
        if entry is None:
            entry = self._build_neighborhood(sender)
            self._neighborhoods[sender.node_id] = entry
        return entry

    def _in_reach(self, sender: Radio) -> List[Radio]:
        """The other radios in the nine cells around ``sender`` that lie
        inside its own disc.

        The nine cells cover the loudest radio's range from anywhere in
        the home cell; the model can make audible only what lies inside
        this sender's disc, so only that is worth a link evaluation.
        """
        hx, hy = self._cell_of(sender._position)
        grid = self._grid
        gathered: List[Radio] = []
        for dx, dy in _NINE_CELLS:
            bucket = grid.get((hx + dx, hy + dy))
            if bucket:
                gathered += bucket
        reach = self._reach_m(sender._tx_power_dbm)
        r2 = reach * reach
        x, y = sender._position
        kept = []
        for radio in gathered:
            px, py = radio._position
            px -= x
            py -= y
            if px * px + py * py <= r2 and radio is not sender:
                kept.append(radio)
        return kept

    def _build_neighborhood(self, sender: Radio) -> _Neighborhood:
        receivers = self._in_reach(sender)
        blocked = self._link_filter
        if blocked is not None:
            sender_id = sender.node_id
            receivers = [radio for radio in receivers
                         if not blocked(sender_id, radio.node_id)]
        model = self._model
        rssi = model.rssi_dbm(sender._position,
                              [radio._position for radio in receivers],
                              sender._tx_power_dbm)
        # By (rssi descending, node_id); the ids are distinct, so a radio
        # is never compared.
        links = [(-level, radio.node_id, radio)
                 for radio, level in zip(receivers, rssi)
                 if level >= AUDIBLE_THRESHOLD_DBM]
        links.sort()
        # Keyed by the radios' own id objects, not fresh ints; the ids
        # are distinct, so the values keep the column order.
        rssi_by_id = {node: -level for level, node, _ in links}
        return _Neighborhood(
            [radio for _, _, radio in links],
            array("d", model.reception_probability(list(rssi_by_id.values()))),
            rssi_by_id)

    def link_prr(self, sender_id: int, receiver_id: int) -> float:
        """Packet reception ratio of the directed link, ignoring collisions.

        Unknown endpoints report 0.0: a peer without a radio on this
        medium (e.g. one only ever heard about in a forged or stale
        control message) is by definition unreachable.
        """
        sender = self.radios.get(sender_id)
        receiver = self.radios.get(receiver_id)
        if sender is None or receiver is None:
            return 0.0
        return self._model.reception_probability(
            [self.rssi_between(sender, receiver)])[0]

    # ------------------------------------------------------------------
    # channel activity
    # ------------------------------------------------------------------
    def _prune_active(self, now: float) -> None:
        """Lazily drop transmissions nothing can still observe.

        A finished transmission must outlive its end: an in-flight frame
        that overlapped it still needs it for collision arbitration at
        delivery time.  Any frame in flight at ``now`` started no
        earlier than ``now - max_airtime``, so entries ending before
        that horizon are unobservable and pop off the end-ordered heap
        in O(log n) — overlap queries then never re-filter them.
        """
        horizon = now - self._max_airtime
        active = self._active
        while active and active[0][0] <= horizon:
            heapq.heappop(active)

    def carrier_busy(self, radio: Radio) -> bool:
        """True if any audible transmission occupies ``radio``'s channel."""
        if radio.listen_plan is not None:
            radio.listen_plan.sync()
        now = self.sim.now
        channel = radio.channel
        radio_id = radio.node_id
        for _, _, tx in self._active:
            if tx.end <= now or not tx.frame.interferes_with(channel):
                continue
            # A sender is never in its own map, so a radio does not
            # sense its own frame.
            rssi = self._neighborhood(tx.radio).rssi_by_id.get(radio_id)
            if rssi is not None and rssi >= CCA_THRESHOLD_DBM:
                return True
        return False

    def audible_until(self, radio: Radio) -> float:
        """When the last frame now in flight and audible at ``radio``
        (on any channel, at any strength) ends; ``now`` if there is none.

        A listen plan keeps every window that begins before this real.
        """
        latest = self.sim.now
        radio_id = radio.node_id
        for _, _, tx in self._active:
            if (tx.end > latest
                    and radio_id in self._neighborhood(tx.radio).rssi_by_id):
                latest = tx.end
        return latest

    def transmit(
        self,
        radio: Radio,
        frame: Frame,
        done: Optional[Callable[[], None]] = None,
    ) -> float:
        """Put ``frame`` on the air from ``radio``."""
        if not radio.enabled:
            raise RuntimeError(f"radio {radio.node_id} is disabled (node failed)")
        if radio.listen_plan is not None:
            radio.listen_plan.sync()
        if radio.state is _TX:
            raise RuntimeError(f"radio {radio.node_id} already transmitting")
        now = self.sim.now
        airtime = frame.airtime
        if airtime > self._max_airtime:
            self._max_airtime = airtime
        self._prune_active(now)
        span = addressee = None
        obs = self.trace.obs
        if obs is not None:
            parent = getattr(frame.payload, "trace_ctx", None)
            if parent is not None:
                span = obs.spans.start(parent, "radio.airtime",
                                       node=radio.node_id, t=now,
                                       size=frame.size_bytes)
                addressee = getattr(frame.payload, "dst", None)
        tx = _Transmission(radio, frame, now, now + airtime, span, addressee)
        self._active_seq += 1
        heapq.heappush(self._active, (tx.end, self._active_seq, tx))
        radio._set_state(_TX)
        radio.frames_sent += 1
        radio.bytes_sent += frame.size_bytes
        trace = self.trace
        watched = (self._watched if self._watch_version == trace.version
                   else self._rewatch())
        if "radio.tx" in watched:
            trace.emit(now, "radio.tx", node=radio.node_id,
                       size=frame.size_bytes, channel=frame.channel)
        else:
            counters = trace.counters
            counters["radio.tx"] = counters.get("radio.tx", 0) + 1

        # Jammers are never received, only interfere.  The entry is the
        # one current *now*: a later attach or filter replaces it and
        # changes only future frames.
        entry = None if frame.jam_channels else self._neighborhood(radio)
        if self._planned:
            # Sensed by every listener in earshot, jam frames included.
            for receiver in self._neighborhood(radio).radios:
                if receiver.listen_plan is not None:
                    receiver.listen_plan.frame_started(tx.end)

        def finish() -> None:
            radio._set_state(_LISTEN)
            if entry is not None and entry.radios:
                self._deliver(tx, entry)
            if span is not None:
                self.trace.obs.spans.finish(span, self.sim.now)
            if done is not None:
                done()

        self.sim.schedule(airtime, finish)
        return airtime

    def _rewatch(self) -> FrozenSet[str]:
        """Ask the trace again which of ``_CATEGORIES`` it watches."""
        trace = self.trace
        self._watch_version = trace.version
        self._watched = frozenset(c for c in _CATEGORIES if trace.watched(c))
        return self._watched

    def _interferers(self, tx: _Transmission) -> List[Dict[int, float]]:
        """``rssi_by_id`` of every transmission that overlapped ``tx``.

        Overlap is in time and channel; where each one is audible is
        what its map says *now*, at the end of ``tx``.
        """
        start, end, channel = tx.start, tx.end, tx.frame.channel
        maps = [self._neighborhood(other.radio).rssi_by_id
                for _, _, other in self._active
                if other is not tx and other.end > start and other.start < end
                and other.frame.interferes_with(channel)]
        # Loudest at the sender first: the nearest is audible, and loud,
        # at most of its receivers, so the first-hit walk stops soonest.
        if len(maps) > 1:
            sender = tx.frame.sender
            maps.sort(key=lambda m: m.get(sender, -math.inf), reverse=True)
        return maps

    def _deliver(self, tx: _Transmission, entry: _Neighborhood) -> None:
        """Decide the frame's fate at each radio of ``entry``, its sender's
        neighbourhood when it was sent (module docstring, "Delivery walks
        the columns once").  A payload ``dst`` a receiver does not
        recognise (:attr:`Radio.rx_addresses`) is counted but not handed up."""
        if self._planned:
            # The sync rule, for every receiver the loop below reads.
            for receiver in entry.radios:
                if receiver.listen_plan is not None and receiver.enabled:
                    receiver.listen_plan.sync()
        frame = tx.frame
        channel, start, sender = frame.channel, tx.start, frame.sender
        now, trace = self.sim.now, self.trace
        emit, counters, draw = trace.emit, trace.counters, self._rng.random
        # Only the addressee's outcome explains the hop; overheard
        # copies are not part of the packet's lifecycle.
        span, addressee = tx.span, tx.addressee
        dst = getattr(frame.payload, "dst", None)
        interferers: Optional[List[Dict[int, float]]] = None
        world_version, watch_version = self._world_version, trace.version
        watched = (self._watched if self._watch_version == watch_version
                   else self._rewatch())
        # Decided at the first loss: may losses be tallied, do all keys exist?
        tallied = keyed = None
        misses = collisions = drops = 0
        for receiver, rssi, prr in zip(entry.radios, entry.rssi_by_id.values(),
                                       entry.prr):
            if not receiver.enabled or receiver.channel != channel:
                continue
            node = receiver.node_id
            # _listen_since is inf unless LISTEN: one compare decides.
            if receiver._listen_since > start:
                # Slept through (part of) the frame — the duty-cycling cost.
                lost = "radio.miss"
            else:
                if interferers is None:
                    # First listener, or an upcall just changed the world.
                    interferers = self._interferers(tx)
                # The first interferer inside the margin decides.
                for rssi_by_id in interferers:
                    other = rssi_by_id.get(node)
                    if other is not None and rssi - other < CAPTURE_MARGIN_DB:
                        lost = "radio.collision"
                        break
                else:
                    lost = "radio.drop" if draw() > prr else None
            if lost is not None:
                if tallied is None:
                    tallied = span is None and watched.isdisjoint(_OUTCOMES)
                    keyed = tallied and counters.keys() >= _OUTCOMES
                # Only into a key that exists: adding to a key keeps the
                # counters' order, creating one would not.
                if keyed or (tallied and lost in counters):
                    if lost == "radio.collision":
                        collisions += 1
                    elif lost == "radio.miss":
                        misses += 1
                    else:
                        drops += 1
                    continue
                if lost in watched:
                    emit(now, lost, node=node, sender=sender)
                else:
                    counters[lost] = counters.get(lost, 0) + 1
                if span is not None and (addressee is None or addressee == node):
                    trace.obs.spans.event(span, lost, node=node, t=now)
            else:
                receiver.frames_received += 1
                if "radio.rx" in watched:
                    emit(now, "radio.rx", node=node, sender=sender,
                         size=frame.size_bytes)
                else:
                    counters["radio.rx"] = counters.get("radio.rx", 0) + 1
                if span is not None and (addressee is None or addressee == node):
                    trace.obs.spans.event(span, "radio.rx", node=node, t=now,
                                          rssi=round(rssi, 1))
                if receiver.on_receive is not None and (
                        dst is None or receiver.rx_addresses is None
                        or dst in receiver.rx_addresses):
                    if misses or collisions or drops:
                        if misses:
                            counters["radio.miss"] += misses
                        if collisions:
                            counters["radio.collision"] += collisions
                        if drops:
                            counters["radio.drop"] += drops
                        misses = collisions = drops = 0
                    receiver.on_receive(frame, rssi)
            # What just ran may have changed who watches or the world.
            if trace.version != watch_version:
                watch_version = trace.version
                watched = self._rewatch()
                tallied = None
            if self._world_version != world_version:
                world_version = self._world_version
                interferers = None
        if misses:
            counters["radio.miss"] += misses
        if collisions:
            counters["radio.collision"] += collisions
        if drops:
            counters["radio.drop"] += drops
