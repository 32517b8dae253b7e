"""Synthetic cross-technology interferers.

The paper's administrative-scalability discussion (§IV-C, refs [35],
[36]) is about co-located systems — run by different entities — sharing
the 2.4 GHz band.  Real coexistence studies inject Wi-Fi and BLE traffic
next to an 802.15.4 testbed; we substitute interferer processes that put
wide-band frames on the medium.  Those frames are never received by
802.15.4 radios, but they raise CCA and collide with overlapping
transmissions, which is exactly the mechanism behind the measured PRR
collapse in the cited studies.
"""

from __future__ import annotations

from repro.radio.channels import ieee802154_channels_hit_by_wifi
from repro.radio.medium import Frame, Medium, Radio, RadioState


#: Length of each busy burst (a frame or aggregate); read at run time,
#: so a test patches it.
BURST_AIRTIME_S = 0.002


class WifiInterferer:
    """A Wi-Fi access point + stations, abstracted to a busy-burst source.

    Built from a :class:`~repro.faults.plan.InterferenceClause` (its
    ``node_id``, ``position``, ``wifi_channel``, ``duty_cycle`` and
    ``tx_power_dbm``): ``duty_cycle`` is the long-run fraction of
    airtime occupied by bursts of :data:`BURST_AIRTIME_S`, with
    exponential gaps between them — Poisson burst arrivals at the rate
    the duty cycle implies.
    """

    def __init__(self, medium: Medium, clause) -> None:
        self.medium = medium
        self.sim = medium.sim
        self.duty_cycle = clause.duty_cycle
        self.radio = Radio(
            medium,
            clause.node_id,
            clause.position,
            tx_power_dbm=clause.tx_power_dbm,
            channel=0,  # not an 802.15.4 channel; this radio only jams
        )
        self.jam_channels = ieee802154_channels_hit_by_wifi(clause.wifi_channel)
        self._rng = self.sim.substream(f"interferer.{clause.node_id}")
        self._running = False
        self.bursts_sent = 0

    def _gap_s(self) -> float:
        """One idle gap between bursts, drawn around the duty cycle's mean."""
        mean_s = BURST_AIRTIME_S * (1.0 - self.duty_cycle) / self.duty_cycle
        return self._rng.expovariate(1.0 / mean_s)

    def start(self) -> None:
        """Begin emitting busy bursts."""
        if self._running:
            return
        self._running = True
        self.radio.set_listening()
        self.sim.schedule(self._gap_s(), self._burst)

    def stop(self) -> None:
        """Cease interfering after the current burst."""
        self._running = False

    def _burst(self) -> None:
        if not self._running:
            return
        airtime = BURST_AIRTIME_S
        size_bytes = max(1, int(airtime * 250_000 / 8))
        frame = Frame(
            payload=None,
            size_bytes=size_bytes,
            channel=0,
            sender=self.radio.node_id,
            jam_channels=self.jam_channels,
        )
        if self.radio.state is not RadioState.TX:
            self.medium.transmit(self.radio, frame)
            self.bursts_sent += 1
        self.sim.schedule(airtime + self._gap_s(), self._burst)
