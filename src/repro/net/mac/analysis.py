"""Closed-form expectations for duty-cycled MAC behaviour.

Analytic counterparts to the simulated MACs, used two ways:

- **validation** — the test suite checks the simulator against these
  formulas (a simulator that disagrees with its own arithmetic is
  broken);
- **design** — deployments can size wake intervals from the formulas
  before simulating (the paper's §V-D "configuration requires
  expertise" problem, made a little smaller).

Models:

- **LPL (BoX-MAC, unicast, clean channel)** — per-hop rendezvous waits
  for the receiver's next probe: U(0, W), so a sender strobes for
  ``W/2`` on average plus transmission serialization; an idle node's
  duty cycle is ``probe/W`` plus the occasional hold; a phase-locked
  sender transmits for ~a guard window instead of the rendezvous wait.
- **TSCH (scheduled slotframe)** — an idle node's duty cycle is its
  listening slots (the shared minimal cell plus any RX cells) over the
  slotframe.

:func:`mac_summary_lines` is the report dashboard's MAC section: it
dispatches on the fleet's MAC type, so scheduled MACs report cells and
shared-cell contention instead of CSMA-style backoff fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.net.mac import csma, lpl, rimac, tsch
from repro.net.mac.lpl import LplConfig
from repro.net.mac.tsch import TschConfig
from repro.net.packet import MAC_HEADER_BYTES
from repro.radio.medium import BITRATE_BPS, PHY_OVERHEAD_BYTES


def frame_airtime_s(payload_bytes: int) -> float:
    """Airtime of one data frame at the 802.15.4 PHY rate."""
    return (PHY_OVERHEAD_BYTES + MAC_HEADER_BYTES + payload_bytes) * 8 / BITRATE_BPS


@dataclass(frozen=True)
class LplExpectations:
    """Analytic predictions for one LPL configuration."""

    config: LplConfig

    def idle_duty_cycle(self) -> float:
        """Radio-on fraction of a node with no traffic at all."""
        return min(1.0, lpl.PROBE_DURATION_S / self.config.wake_interval_s)

    def sender_strobe_airtime_s(self, payload_bytes: int = 20) -> float:
        """Mean radio-on time a sender pays for one unicast."""
        if self.config.phase_lock:
            # Guard window before the wake, plus the exchange itself.
            return (lpl.PHASE_GUARD_S + lpl.PROBE_DURATION_S
                    + frame_airtime_s(payload_bytes))
        # Strobes until the receiver's probe: W/2 on average.
        return (self.config.wake_interval_s / 2.0
                + frame_airtime_s(payload_bytes))


@dataclass(frozen=True)
class TschExpectations:
    """Analytic predictions for one TSCH configuration."""

    config: TschConfig

    def idle_duty_cycle(self, rx_cells: int = 0) -> float:
        """Radio-on fraction of a node listening its shared minimal
        cell plus ``rx_cells`` dedicated RX cells (whole-slot holds)."""
        if rx_cells < 0:
            raise ValueError("rx_cells must be >= 0")
        return min(1.0, (1 + rx_cells) / self.config.slotframe_slots)


def mac_summary_lines(macs: Sequence[object]) -> List[str]:
    """Dashboard lines describing a fleet's MAC layer.

    Dispatches on the MAC implementation, so scheduled MACs render
    schedule statistics (dedicated cells, cell utilization, shared-cell
    contention, 6P traffic) while contention MACs render their
    duty-cycle parameters — the report no longer assumes CSMA-shaped
    internals.
    """
    macs = list(macs)
    if not macs:
        return []
    head = macs[0]
    if isinstance(head, tsch.TschMac):
        cells = [len(m.schedule.dedicated_cells()) for m in macs]
        util = [m.cell_utilization() for m in macs]
        contention = [m.shared_contention() for m in macs]
        sixp = sum(m.tsch_stats.sixp_sent for m in macs)
        timeouts = sum(m.tsch_stats.sixp_timeouts for m in macs)
        added = sum(m.tsch_stats.cells_added for m in macs)
        deleted = sum(m.tsch_stats.cells_deleted for m in macs)
        expect = TschExpectations(head.config)
        return [
            (f"tsch: slotframe={head.config.slotframe_slots} slots x "
             f"{tsch.SLOT_DURATION_S * 1000:.0f}ms, "
             f"{len(tsch.HOPPING)}-channel hopping"),
            (f"cells: dedicated={sum(cells)} "
             f"(max/node={max(cells)}), added={added} deleted={deleted}, "
             f"6p msgs={sixp} timeouts={timeouts}"),
            (f"cell utilization: mean={sum(util) / len(util):.0%}  "
             f"shared-cell contention: mean="
             f"{sum(contention) / len(contention):.0%}"),
            (f"idle duty-cycle floor: {expect.idle_duty_cycle():.1%} "
             f"(shared minimal cell)"),
        ]
    if isinstance(head, lpl.LplMac):
        expect = LplExpectations(head.config)
        return [
            (f"lpl: wake interval={head.config.wake_interval_s:.3f}s, "
             f"probe={lpl.PROBE_DURATION_S * 1000:.1f}ms, "
             f"idle duty-cycle floor: {expect.idle_duty_cycle():.1%}"),
        ]
    if isinstance(head, rimac.RiMac):
        return [
            (f"rimac: beacon period={head.config.wake_interval_s:.3f}s "
             f"(±{rimac.JITTER:.0%}), "
             f"dwell={rimac.DWELL_S * 1000:.1f}ms"),
        ]
    if isinstance(head, csma.CsmaMac):
        return [
            (f"csma: always-on CSMA/CA, max retries="
             f"{head.config.max_retries}, "
             f"cca attempts={csma.MAX_CCA_ATTEMPTS}"),
        ]
    return []
