"""Always-on CSMA/CA with link-layer acknowledgments.

The energy-unconstrained baseline: the radio listens whenever it is not
transmitting, so receive latency is only backoff + airtime.  This is
what mains-powered border routers run, and what battery-powered nodes
*cannot afford* — the contrast that motivates duty cycling (§IV-B).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.net.mac.base import MacConfigError, MacLayer, _TxJob
from repro.net.packet import BROADCAST
from repro.radio.medium import RadioState


# 802.15.4 unslotted CSMA timing, read at run time (a test patches them).
#: Initial backoff window; doubles per failed CCA.
BACKOFF_UNIT_S = 0.00032
#: Backoff exponent bounds (window = unit * 2**be slots).
MIN_BE = 3
MAX_BE = 5
#: Clear-channel attempts before declaring channel-access failure.
MAX_CCA_ATTEMPTS = 5
#: How long to wait for the ACK after the data frame ends.
ACK_TIMEOUT_S = 0.003


@dataclass(frozen=True)
class CsmaConfig:
    """CSMA/CA parameters."""

    #: Retransmissions of an unacknowledged unicast frame.
    max_retries: int = 3

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise MacConfigError(
                f"CsmaConfig.max_retries must be >= 0, "
                f"got {self.max_retries!r}")


class CsmaMac(MacLayer):
    """Unslotted CSMA/CA over an always-listening radio."""

    def __init__(self, radio, config: Optional[CsmaConfig] = None) -> None:
        super().__init__(radio)
        self.config = config if config is not None else CsmaConfig()
        self._ack_timer = self._timer(self._ack_timeout)

    def _on_start(self) -> None:
        self.radio.set_listening()

    # ------------------------------------------------------------------
    def _start_job(self, job: _TxJob) -> None:
        self._cca(job, cca_attempt=0)

    def _cca(self, job: _TxJob, cca_attempt: int) -> None:
        be = min(MIN_BE + cca_attempt, MAX_BE)
        window = BACKOFF_UNIT_S * (2**be)
        delay = self._rng.uniform(0, window)

        def check() -> None:
            if self._in_flight is not job:
                return  # stop() ended the job while the backoff ran
            if self.radio.carrier_busy() or self.radio.state is RadioState.TX:
                if cca_attempt + 1 >= MAX_CCA_ATTEMPTS:
                    self._finish_job(job, False)
                else:
                    self._cca(job, cca_attempt + 1)
                return
            self._transmit_data(job)

        self.sim.schedule(delay, check)

    def _transmit_data(self, job: _TxJob) -> None:
        frame = self.data_frame(job)

        def tx_done() -> None:
            if self._in_flight is not job:
                return  # stop() ended the job while the frame was on air
            if job.dest == BROADCAST:
                self._finish_job(job, True)
                return
            self._ack_timer.start(ACK_TIMEOUT_S)

        self._transmit_frame(frame, tx_done)

    def _ack_timeout(self) -> None:
        job = self._in_flight
        job.retries += 1
        if job.retries > self.config.max_retries:
            self._finish_job(job, False)
        else:
            self._cca(job, cca_attempt=0)

    def _handle_ack(self, job: _TxJob) -> None:
        if self._ack_timer.armed:
            self._ack_timer.cancel()
            self._finish_job(job, True)
