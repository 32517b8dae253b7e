"""Low-power listening (BoX-MAC-2 style sender strobe).

Receivers sleep almost always, briefly probing the channel every
``wake_interval``.  A sender retransmits the data frame back to back for
up to a full wake interval, so every neighbour's probe falls inside the
strobe.  Unicast strobes stop early on the receiver's ACK.

This is the canonical duty-cycled MAC of the paper's §IV-B (refs [26],
[27]): per-hop latency averages ``wake_interval / 2``, which is why "a
packet may take seconds to be transmitted over few wireless hops".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.net.mac.base import MacConfigError, MacLayer, _TxJob
from repro.net.packet import BROADCAST, MacFrame
from repro.radio.medium import RadioState


# BoX-MAC-2 timing, read at run time (a test patches them).
#: How long a probe listens before declaring the channel idle.
PROBE_DURATION_S = 0.006
#: Idle gap between strobe copies, during which the sender listens for
#: an ACK.
COPY_GAP_S = 0.0025
#: Extra strobe time beyond one wake interval (clock tolerance).
STROBE_MARGIN_S = 0.02
#: Whole-strobe retries for unacknowledged unicast.
MAX_RETRIES = 1
#: How long a receiver holds the radio on after hearing activity.
HOLD_DURATION_S = 0.03
#: How early before a phase-locked neighbor's predicted wakeup the short
#: strobe starts, and how far past it the strobe persists.
PHASE_GUARD_S = 0.025


@dataclass(frozen=True)
class LplConfig:
    """Low-power-listening parameters."""

    #: Receiver probe period — the latency/energy knob (E3 sweeps it).
    wake_interval_s: float = 0.5
    #: ContikiMAC-style phase lock: once a neighbor's wake phase is
    #: learned (from its ACK timing), unicast strobes start just before
    #: the predicted wakeup instead of spanning a full wake interval.
    phase_lock: bool = False

    def __post_init__(self) -> None:
        if self.wake_interval_s <= 0:
            raise MacConfigError(
                f"LplConfig.wake_interval_s must be positive, "
                f"got {self.wake_interval_s!r}")
        if PROBE_DURATION_S >= self.wake_interval_s:
            raise MacConfigError(
                f"LplConfig.wake_interval_s must exceed the probe "
                f"({PROBE_DURATION_S} s), got {self.wake_interval_s!r}")


class LplMac(MacLayer):
    """BoX-MAC-2 style low-power listening MAC."""

    def __init__(self, radio, config: Optional[LplConfig] = None) -> None:
        super().__init__(radio)
        self.config = config if config is not None else LplConfig()
        self._probe_timer = self._timer(self._probe)
        self._hold_timer = self._timer(self._hold_expired)
        #: The gap between copies doubles as the ACK listen window.
        self._ack_timer = self._timer(self._send_copy)
        self._strobe_deadline = 0.0
        self._awake_hold = False
        self._got_ack = False
        self._copies_sent = 0
        #: Learned neighbor wake phases (node -> an instant it was awake).
        self._neighbor_phase: Dict[int, float] = {}
        self.phase_lock_hits = 0
        self.phase_lock_misses = 0

    # ------------------------------------------------------------------
    # duty cycle (receiver side)
    # ------------------------------------------------------------------
    def _on_start(self) -> None:
        # Random phase avoids network-wide synchronized probes.
        self._probe_timer.start(self._rng.uniform(0, self.config.wake_interval_s))

    def _probe(self) -> None:
        self._probe_timer.start(self.config.wake_interval_s)
        if self._in_flight is not None:
            return  # already awake, strobing
        if self.radio.state is RadioState.TX:
            return
        self.radio.set_listening()
        self._awake_hold = False
        self._hold_timer.start(PROBE_DURATION_S)

    def _hold_expired(self) -> None:
        if self._in_flight is not None:
            return
        if self.radio.state is RadioState.TX:
            self._hold_timer.start(HOLD_DURATION_S)
            return
        if self.radio.carrier_busy():
            # Someone is strobing: hold until we catch a full copy.
            self._awake_hold = True
            self._hold_timer.start(HOLD_DURATION_S)
            return
        self.radio.sleep()

    def _handle_data(self, frame: MacFrame) -> None:
        super()._handle_data(frame)
        # Done with this wakeup unless we are mid-strobe ourselves.
        if self._in_flight is None and frame.dst == self.radio.node_id:
            self._hold_timer.start(HOLD_DURATION_S)

    # ------------------------------------------------------------------
    # strobe (sender side)
    # ------------------------------------------------------------------
    def _start_job(self, job: _TxJob) -> None:
        if (
            self.config.phase_lock
            and job.dest != BROADCAST
            and job.dest in self._neighbor_phase
        ):
            self._begin_phase_locked_strobe(job)
        else:
            self._begin_strobe(job)

    def _begin_phase_locked_strobe(self, job: _TxJob) -> None:
        """Short strobe aimed at the neighbor's predicted wakeup.

        If the prediction misses (the phase table was stale), the retry
        path falls back to a full-interval strobe, which also refreshes
        the learned phase.
        """
        interval = self.config.wake_interval_s
        guard = PHASE_GUARD_S
        anchor = self._neighbor_phase[job.dest]
        now = self.sim.now
        periods = max(0, int((now + guard - anchor) / interval)) + 1
        predicted = anchor + periods * interval
        start_delay = max(0.0, predicted - guard - now)
        self._got_ack = False
        self._copies_sent = 0
        # Strobe only around the predicted wakeup (plus the receiver's
        # probe length), not a full interval.
        self._strobe_deadline = (
            predicted + guard + PROBE_DURATION_S
            + HOLD_DURATION_S
        )
        self.sim.schedule(start_delay, self._phase_strobe_start)

    def _phase_strobe_start(self) -> None:
        if self._in_flight is None:
            return
        self.radio.set_listening()
        self._send_copy()

    def _begin_strobe(self, job: _TxJob) -> None:
        self._got_ack = False
        self._copies_sent = 0
        self._strobe_deadline = (
            self.sim.now + self.config.wake_interval_s + STROBE_MARGIN_S
        )
        self.radio.set_listening()
        # Dither strobe starts so two nodes triggered by the same event
        # (e.g. a Trickle reset) do not collide for a full wake interval.
        self.sim.schedule(self._rng.uniform(0, 0.008), self._send_copy)

    def _send_copy(self) -> None:
        job = self._in_flight
        if job is None:
            return
        if self._got_ack:
            self._strobe_done(job, True)
            return
        if self.sim.now >= self._strobe_deadline:
            self._strobe_done(
                job, job.dest == BROADCAST and self._copies_sent > 0)
            return
        if self.radio.state is RadioState.TX or self.radio.carrier_busy():
            # Channel occupied (often a neighbour's strobe): defer the
            # copy rather than collide with it for its whole length.
            self._ack_timer.start(COPY_GAP_S)
            return
        frame = self.data_frame(job)
        self._copies_sent += 1
        self._transmit_frame(
            frame, lambda: self._ack_timer.start(COPY_GAP_S)
        )

    def _handle_ack(self, job: _TxJob) -> None:
        self._got_ack = True
        # The ACK instant is (approximately) a moment the neighbor was
        # awake: the phase anchor ContikiMAC-style senders lock onto.
        self._neighbor_phase[job.dest] = self.sim.now

    def _strobe_done(self, job: _TxJob, success: bool) -> None:
        self._ack_timer.cancel()
        if self.config.phase_lock and job.dest != BROADCAST:
            if success:
                self.phase_lock_hits += 1
            else:
                # Stale phase: drop it so the retry relearns honestly.
                self.phase_lock_misses += 1
                self._neighbor_phase.pop(job.dest, None)
        if not success and job.retries < MAX_RETRIES:
            job.retries += 1
            self._begin_strobe(job)
            return
        if self.radio.state is not RadioState.TX and not self._awake_hold:
            self.radio.sleep()
        self._finish_job(job, success)
