"""Medium-access protocols for duty-cycled low-power radios.

The paper's geographic-scalability argument (§IV-B) hinges on MAC-layer
behaviour: duty-cycled MACs trade idle-listening energy for per-hop
latency (refs [26], [27]), while tightly synchronized schemes recover
the latency at a coordination cost (refs [28]–[30]).  This package
implements one representative of each family:

- :class:`CsmaMac` — always-on CSMA/CA: minimal latency, maximal idle
  listening (the energy-unconstrained baseline);
- :class:`LplMac` — low-power listening (BoX-MAC-2 style sender strobe);
- :class:`RiMac` — receiver-initiated beacons (RI-MAC style);
- :class:`TschMac` — TSCH-style scheduled slotframe (:mod:`.schedule`)
  with 6P-negotiated cells (:mod:`.sixp`), the 6TiSCH industrial
  baseline;
- :class:`SyncFloodService` — Glossy/Dozer-style synchronous flooding,
  modelled at slot granularity.
"""

from repro.net.mac.analysis import (
    LplExpectations,
    TschExpectations,
    frame_airtime_s,
    mac_summary_lines,
)
from repro.net.mac.base import MacConfigError, MacLayer, MacStats
from repro.net.mac.csma import CsmaConfig, CsmaMac
from repro.net.mac.lpl import LplConfig, LplMac
from repro.net.mac.rimac import RiMacConfig, RiMac
from repro.net.mac.schedule import Cell, SlotConflictError, TschSchedule
from repro.net.mac.sixp import SixpMessage, SixpPeer, TschStats
from repro.net.mac.syncflood import SyncFloodConfig, SyncFloodService
from repro.net.mac.tsch import TschConfig, TschMac

__all__ = [
    "Cell",
    "CsmaConfig",
    "CsmaMac",
    "LplConfig",
    "LplExpectations",
    "LplMac",
    "frame_airtime_s",
    "mac_summary_lines",
    "MacConfigError",
    "MacLayer",
    "MacStats",
    "RiMac",
    "RiMacConfig",
    "SixpMessage",
    "SixpPeer",
    "SlotConflictError",
    "SyncFloodConfig",
    "SyncFloodService",
    "TschConfig",
    "TschExpectations",
    "TschMac",
    "TschSchedule",
    "TschStats",
]
