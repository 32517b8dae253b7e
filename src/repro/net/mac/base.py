"""The MAC contract: :class:`MacLayer` owns an exchange from enqueue to
its one terminal outcome; a concrete MAC supplies channel access only.

Owned here, once: the bounded FIFO transmit queue and the single job in
flight (as on real single-radio devices) with its spent retry budget,
matching an ACK against that job, acknowledging a unicast addressed
here, dedup and the security filter, the timers, the stop path, and the
terminal accounting in :class:`MacStats` (read as ``mac.tx``) with its
``mac.job`` spans.  DESIGN.md, "MAC contract", lists the hooks a MAC supplies.
"""

from __future__ import annotations

import abc
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.net.packet import BROADCAST, FrameKind, MacFrame
from repro.radio.medium import Frame, Radio, RadioState
from repro.sim.timers import Timer


#: Transmit-queue bound: the frames a MAC holds beyond the one in flight
#: (read at run time; a test patches it).
MAX_QUEUE = 16


class MacConfigError(ValueError):
    """Raised for invalid MAC configuration values."""


@dataclass
class MacStats:
    """Counters every MAC maintains; experiments read these."""

    enqueued: int = 0
    queue_drops: int = 0
    tx_success: int = 0
    tx_failed: int = 0
    tx_attempts: int = 0
    rx_delivered: int = 0
    rx_duplicates: int = 0
    acks_sent: int = 0


@dataclass(slots=True)
class _TxJob:
    dest: int
    payload: Any
    payload_bytes: int
    done: Optional[Callable[[bool], None]]
    seq: int
    auth_bytes: int = 0
    #: The ``mac.job`` span (repro.obs); None when untraced.
    ctx: Any = None
    #: Retry budget spent, in the MAC's own unit: unacknowledged
    #: attempts (CSMA, TSCH) or whole strobes/waits (LPL, RI-MAC).
    retries: int = 0


class MacLayer(abc.ABC):
    """Abstract single-radio MAC with a bounded FIFO transmit queue.

    Subclasses implement channel access in :meth:`_start_job` and call
    :meth:`_finish_job` exactly once per job; :meth:`stop` does it for
    them when it cuts an exchange short.  Frames received from the
    radio flow through :meth:`_on_phy_receive`, which hands the ACK of
    the job in flight to :meth:`_handle_ack` and deduplicated DATA
    frames to :meth:`_deliver` (the ``on_receive`` upcall).  Timers come
    from :meth:`_timer`, so a stopped MAC has none armed.
    """

    #: Counters the registry reads from this MAC (``TraceLog.add_reader``).
    COUNTED = (
        ("mac.tx", {"ok": True}, "stats.tx_success"),
        ("mac.tx", {"ok": False}, "stats.tx_failed"),
        ("mac.queue_drop", {}, "stats.queue_drops"),
    )

    def __init__(self, radio: Radio) -> None:
        self.radio = radio
        self.sim = radio.medium.sim
        self.trace = radio.medium.trace
        self.stats = MacStats()
        self.on_receive: Optional[Callable[[MacFrame], None]] = None
        #: Optional verifier installed by the security layer: returns the
        #: (possibly rewritten) frame to deliver, or None to drop it.
        self.frame_filter: Optional[Callable[[MacFrame], Optional[MacFrame]]] = None
        #: Authentication tag bytes appended to outgoing DATA frames.
        self.auth_overhead_bytes = 0
        self._queue: Deque[_TxJob] = deque()
        #: The dequeued job channel access is working on, if any.
        self._in_flight: Optional[_TxJob] = None
        self._started = False
        #: Every timer of this MAC (see :meth:`_timer`).
        self._timers: List[Timer] = []
        #: When the last frame handed to the medium leaves the air.
        self._tx_end = 0.0
        self._dedup: Dict[int, int] = {}
        radio.on_receive = self._on_phy_receive
        # Address recognition: a frame addressed elsewhere is counted at
        # the radio and never handed up.
        radio.rx_addresses = frozenset((radio.node_id, BROADCAST))
        self._rng = self.sim.substream(f"mac.{radio.node_id}")
        self.trace.add_reader(self, radio.node_id, self.COUNTED)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Bring the MAC up (radio duty cycle begins)."""
        if self._started:
            return
        self._started = True
        self._on_start()

    def stop(self) -> None:
        """Shut the MAC down; the in-flight job and every queued one fail.

        All of them take the same terminal path as a job that ran its
        course, so the accounting identity ``enqueued == tx_success +
        tx_failed + queued + in_flight`` survives a stop and a restarted
        MAC starts from an idle queue.
        """
        if not self._started:
            return
        self._started = False
        self._on_stop()
        self._idle()
        if self._in_flight is not None:
            self._finish_job(self._in_flight, False)
        while self._queue:
            self._finish_job(self._queue.popleft(), False)

    @property
    def running(self) -> bool:
        return self._started

    @abc.abstractmethod
    def _on_start(self) -> None:
        """Subclass hook: begin the duty cycle."""

    def _on_stop(self) -> None:
        """Subclass hook, first thing in :meth:`stop`: settle what only
        a running MAC can.  Timers, radio and jobs are the base's."""

    def _idle(self) -> None:
        """Unless running again: no armed timer, radio off.  A frame on
        the air is not cut short; when it ends the medium returns the
        radio to LISTEN and runs the sender's completion (which may arm
        a timer), so this runs once more right after that."""
        if self._started:
            return
        for timer in self._timers:
            timer.cancel()
        if self.radio.state is RadioState.TX:
            self.sim.schedule_at(self._tx_end, self._idle)
        else:
            self.radio.sleep()

    def _timer(self, callback: Callable[[], None]) -> Timer:
        """A restartable timer that :meth:`stop` cancels."""
        timer = Timer(self.sim, callback)
        self._timers.append(timer)
        return timer

    # ------------------------------------------------------------------
    # listen plan (event-free idle listening; see repro.radio.medium)
    # ------------------------------------------------------------------
    # A MAC whose radio listens in windows that are a pure function of
    # time (TSCH cells today; LPL's periodic channel check and RI-MAC's
    # beacon wait fit the same shape) registers itself with
    # ``radio.set_listen_plan(self)`` while it runs, schedules no events
    # for windows it has nothing to send in, and overrides these two.

    def sync(self) -> None:
        """Bring the radio up to ``sim.now``: charge the windows that
        elapsed untouched in closed form (LISTEN seconds, the channel
        the last one left behind) and, when ``now`` lies inside a
        window, make that one real.  Called through
        :meth:`Radio.sync` wherever the radio's fields are read (the
        sync rule, :mod:`repro.radio.medium`); must be idempotent and
        cheap when nothing elapsed."""

    def frame_started(self, until: float) -> None:
        """A frame that is on the air until ``until`` just became
        audible at this radio: :meth:`sync`, then make sure a real
        wake-up is scheduled for the next window that begins before
        ``medium.audible_until(radio)``.  Once awake, the MAC keeps
        itself so for as long as the frame can matter."""

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def send(
        self,
        dest: int,
        payload: Any,
        payload_bytes: int,
        done: Optional[Callable[[bool], None]] = None,
        trace_ctx: Any = None,
    ) -> bool:
        """Enqueue a frame for ``dest`` (or :data:`BROADCAST`).

        Returns False (and calls ``done(False)``) when the queue is full
        or the MAC is stopped — queue overflow is a first-class failure
        mode on constrained devices, not an exception.  ``trace_ctx``
        parents a ``mac.job`` span covering queueing and channel access.
        """
        obs = self.trace.obs
        node = self.radio.node_id
        if not self._started or len(self._queue) >= MAX_QUEUE:
            self.stats.queue_drops += 1
            if obs is not None:
                obs.spans.event(trace_ctx, "mac.queue_drop", node=node,
                                t=self.sim.now, dest=dest)
            if done is not None:
                done(False)
            return False
        ctx = None
        if obs is not None and trace_ctx is not None:
            ctx = obs.spans.start(trace_ctx, "mac.job", node=node,
                                  t=self.sim.now, dest=dest)
        job = _TxJob(
            dest=dest,
            payload=payload,
            payload_bytes=payload_bytes,
            done=done,
            seq=self.sim.next_id("net.seq"),
            auth_bytes=self.auth_overhead_bytes,
            ctx=ctx,
        )
        self._queue.append(job)
        self.stats.enqueued += 1
        self._kick()
        return True

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def _kick(self) -> None:
        if (self._in_flight is not None or not self._queue
                or not self._started):
            return
        job = self._in_flight = self._queue.popleft()
        if job.ctx is not None:
            # Waypoint for latency attribution: time before this is
            # queue wait, after it channel access (backoff/CCA).
            self.trace.obs.spans.annotate(job.ctx, service_start=self.sim.now)
        self._start_job(job)

    @abc.abstractmethod
    def _start_job(self, job: _TxJob) -> None:
        """Run channel access for one job; must end in :meth:`_finish_job`."""

    def _finish_job(self, job: _TxJob, success: bool) -> None:
        if success:
            self.stats.tx_success += 1
        else:
            self.stats.tx_failed += 1
        if job.ctx is not None:
            self.trace.obs.spans.finish(job.ctx, self.sim.now, ok=success)
        self._in_flight = None
        if job.done is not None:
            job.done(success)
        # Over an empty queue the kick would be a no-op: ``send`` kicks
        # synchronously and no ``_start_job`` ends its job before it
        # returns, so a job enqueued later is in flight when it fires.
        if self._queue:
            self.sim.call_soon(self._kick)

    def _transmit_frame(
        self, frame: MacFrame, done: Optional[Callable[[], None]] = None
    ) -> float:
        if not self.radio.enabled:
            # Node crashed mid-exchange; swallow the frame, let the
            # caller's completion logic run so jobs still terminate.
            if done is not None:
                self.sim.call_soon(done)
            return 0.0
        self.stats.tx_attempts += 1
        phy = Frame(
            payload=frame,
            size_bytes=frame.size_bytes,
            channel=self.radio.channel,
            sender=self.radio.node_id,
        )
        airtime = self.radio.medium.transmit(self.radio, phy, done)
        self._tx_end = self.sim.now + airtime
        return airtime

    def data_frame(self, job: _TxJob) -> MacFrame:
        """Build the DATA frame for a job (one seq for all its copies)."""
        return MacFrame(
            kind=FrameKind.DATA,
            src=self.radio.node_id,
            dst=job.dest,
            seq=job.seq,
            payload=job.payload,
            payload_bytes=job.payload_bytes,
            auth_bytes=job.auth_bytes,
            trace_ctx=job.ctx,
        )

    # ------------------------------------------------------------------
    # receiving
    # ------------------------------------------------------------------
    def _on_phy_receive(self, phy: Frame, rssi_dbm: float) -> None:
        if not self._started:
            return
        frame = phy.payload
        if not isinstance(frame, MacFrame):
            return
        if frame.kind is FrameKind.ACK:
            job = self._in_flight
            if (job is not None and frame.dst == self.radio.node_id
                    and frame.src == job.dest and frame.seq == job.seq):
                self._handle_ack(job)
            return
        if frame.kind is FrameKind.BEACON:
            self._handle_beacon(frame)
            return
        self._handle_data(frame)

    def _accept(self, frame: MacFrame) -> Optional[MacFrame]:
        """Dedup, then the security filter, then remember the sequence
        number: the frame to act on, or None for a duplicate or a frame
        the filter rejected."""
        if self._dedup.get(frame.src) == frame.seq:
            self.stats.rx_duplicates += 1
            return None
        if self.frame_filter is not None:
            frame = self.frame_filter(frame)
            if frame is None:
                return None
        self._dedup[frame.src] = frame.seq
        return frame

    def _handle_data(self, frame: MacFrame) -> None:
        """ACK a unicast addressed here, then accept and deliver."""
        if frame.dst == self.radio.node_id:
            self._send_ack(frame.src, frame.seq)
        frame = self._accept(frame)
        if frame is not None:
            self._deliver(frame)

    def _deliver(self, frame: MacFrame) -> None:
        """An accepted DATA frame: count it and hand it up."""
        self.stats.rx_delivered += 1
        if self.on_receive is not None:
            self.on_receive(frame)

    @abc.abstractmethod
    def _handle_ack(self, job: _TxJob) -> None:
        """The ACK of ``job``, the one in flight, arrived: act on it if
        the MAC is waiting for one."""

    def _handle_beacon(self, frame: MacFrame) -> None:
        """Receiver-initiated MACs override this."""

    def _send_ack(self, to: int, seq: int, turnaround: float = 0.000192) -> None:
        """Transmit a link-layer ACK after the radio turnaround time."""

        def fire() -> None:
            if not self._started or self.radio.state is RadioState.TX:
                return
            ack = MacFrame(
                kind=FrameKind.ACK,
                src=self.radio.node_id,
                dst=to,
                seq=seq,
            )
            self.stats.acks_sent += 1
            self._transmit_frame(ack)

        self.sim.schedule(turnaround, fire)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def duty_cycle(self) -> float:
        """Fraction of time the radio has been awake (LISTEN or TX)."""
        radio = self.radio
        radio.flush_state_time()
        total = radio.sleep_s + radio.listen_s + radio.tx_s
        if total == 0:
            return 0.0
        return (radio.listen_s + radio.tx_s) / total
