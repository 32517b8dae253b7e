"""Receiver-initiated MAC (RI-MAC style).

Receivers wake on their own schedule and announce availability with a
short beacon; a sender keeps its radio on until it hears the intended
receiver's beacon, then transmits immediately.  Compared with LPL, the
cost of rendezvous moves from the channel (long strobes) to the sender's
idle listening, which behaves much better under contention — the reason
ref [27] proposed it for dynamic traffic loads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.net.mac.base import MacLayer, _TxJob
from repro.net.packet import BROADCAST, FrameKind, MacFrame
from repro.radio.medium import RadioState


# RI-MAC timing, read at run time (a test patches them).
#: Mean beacon period.
WAKE_INTERVAL_S = 0.5
#: Beacon periods are jittered ±JITTER around the wake interval.
JITTER = 0.2
#: How long a receiver listens after its beacon for incoming data.
DWELL_S = 0.008
#: Random pre-transmission delay spreading contending senders.
TX_SPREAD_S = 0.002
#: How long past a full wake interval a sender keeps waiting.
WAIT_MARGIN_S = 0.1
#: Whole-wait retries for unacknowledged unicast.
MAX_RETRIES = 1


@dataclass(frozen=True)
class RiMacConfig:
    """Receiver-initiated MAC parameters: none a run sets, so every
    RI-MAC runs on the module constants above."""


class RiMac(MacLayer):
    """RI-MAC style receiver-initiated duty-cycled MAC."""

    def __init__(self, radio, config: Optional[RiMacConfig] = None) -> None:
        super().__init__(radio)
        self.config = config if config is not None else RiMacConfig()
        self._beacon_timer = self._timer(self._beacon)
        self._dwell_timer = self._timer(self._dwell_over)
        self._wait_timer = self._timer(self._wait_expired)
        self._broadcast_targets_served = 0

    # ------------------------------------------------------------------
    # receiver duty cycle
    # ------------------------------------------------------------------
    def _on_start(self) -> None:
        self._beacon_timer.start(self._rng.uniform(0, WAKE_INTERVAL_S))

    def _next_beacon_delay(self) -> float:
        w, j = WAKE_INTERVAL_S, JITTER
        return self._rng.uniform(w * (1 - j), w * (1 + j))

    def _beacon(self) -> None:
        self._beacon_timer.start(self._next_beacon_delay())
        if self.radio.state is RadioState.TX:
            return
        self.radio.set_listening()
        beacon = MacFrame(
            kind=FrameKind.BEACON,
            src=self.radio.node_id,
            dst=BROADCAST,
            seq=0,
        )
        self._transmit_frame(
            beacon, lambda: self._dwell_timer.start(DWELL_S)
        )

    def _dwell_over(self) -> None:
        if self.radio.state is RadioState.TX:
            self._dwell_timer.start(DWELL_S)
            return
        if self._in_flight is None:
            self.radio.sleep()

    def _handle_data(self, frame: MacFrame) -> None:
        if frame.dst == self.radio.node_id:
            # Hold the radio briefly in case the sender has more.
            self._dwell_timer.start(DWELL_S)
        super()._handle_data(frame)

    # ------------------------------------------------------------------
    # sender side
    # ------------------------------------------------------------------
    def _start_job(self, job: _TxJob) -> None:
        self._broadcast_targets_served = 0
        deadline = (
            self.sim.now
            + WAKE_INTERVAL_S * (1 + JITTER)
            + WAIT_MARGIN_S
        )
        self.radio.set_listening()
        self._wait_timer.start(deadline - self.sim.now)

    def _handle_beacon(self, frame: MacFrame) -> None:
        job = self._in_flight
        if job is None:
            return
        if job.dest != BROADCAST and frame.src != job.dest:
            return

        delay = self._rng.uniform(0, TX_SPREAD_S)

        def fire() -> None:
            if self._in_flight is not job:
                return  # the job ended while the spread delay ran
            if self.radio.state is RadioState.TX or self.radio.carrier_busy():
                return  # lost the race to another sender; next beacon
            self._transmit_frame(self.data_frame(job))
            if job.dest == BROADCAST:
                self._broadcast_targets_served += 1

        self.sim.schedule(delay, fire)

    def _handle_ack(self, job: _TxJob) -> None:
        self._complete(job, True)

    def _wait_expired(self) -> None:
        job = self._in_flight
        if job.dest == BROADCAST:
            self._complete(job, self._broadcast_targets_served > 0
                           or not self.radio.medium.audible_from(self.radio))
            return
        self._complete(job, False)

    def _complete(self, job: _TxJob, success: bool) -> None:
        self._wait_timer.cancel()
        if not success and job.dest != BROADCAST and job.retries < MAX_RETRIES:
            job.retries += 1
            self._start_job(job)  # the same wait once more
            return
        if self.radio.state is not RadioState.TX and not self._dwell_timer.armed:
            self.radio.sleep()
        self._finish_job(job, success)
