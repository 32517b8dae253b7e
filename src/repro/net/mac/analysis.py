"""Closed-form expectations for duty-cycled MAC behaviour.

Analytic counterparts to the simulated MACs, used two ways:

- **validation** — the test suite checks the simulator against these
  formulas (a simulator that disagrees with its own arithmetic is
  broken);
- **design** — deployments can size wake intervals from the formulas
  before simulating (the paper's §V-D "configuration requires
  expertise" problem, made a little smaller).

Model:

- **LPL (BoX-MAC, unicast, clean channel)** — per-hop rendezvous waits
  for the receiver's next probe: U(0, W), so a sender strobes for
  ``W/2`` on average plus transmission serialization; a phase-locked
  sender transmits for ~a guard window instead of the rendezvous wait.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.mac import lpl
from repro.net.mac.lpl import LplConfig
from repro.net.packet import MAC_HEADER_BYTES
from repro.radio.medium import BITRATE_BPS, PHY_OVERHEAD_BYTES


def frame_airtime_s(payload_bytes: int) -> float:
    """Airtime of one data frame at the 802.15.4 PHY rate."""
    return (PHY_OVERHEAD_BYTES + MAC_HEADER_BYTES + payload_bytes) * 8 / BITRATE_BPS


@dataclass(frozen=True)
class LplExpectations:
    """Analytic predictions for one LPL configuration."""

    config: LplConfig

    def sender_strobe_airtime_s(self, payload_bytes: int = 20) -> float:
        """Mean radio-on time a sender pays for one unicast."""
        if self.config.phase_lock:
            # Guard window before the wake, plus the exchange itself.
            return (lpl.PHASE_GUARD_S + lpl.PROBE_DURATION_S
                    + frame_airtime_s(payload_bytes))
        # Strobes until the receiver's probe: W/2 on average.
        return (self.config.wake_interval_s / 2.0
                + frame_airtime_s(payload_bytes))
