"""Safety invariants: the HVAC comfort envelope.

The paper frames comfort as a *soft* safety margin: excursions are a
cost, not a crash — but a correct control system confines them to the
windows where something is actually broken (a crashed controller node, a
partition separating zone from controller, a dead sensor).  The checker
samples every watched zone's temperature and flags any excursion beyond
the envelope that happens **outside** the scenario's declared fault
windows: comfort lost while the system is nominally healthy is a control
bug, not a fault consequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.checking.base import FaultWindowMixin, InvariantChecker
from repro.safety.comfort import ComfortBand

#: Fixed sampling period, in sim seconds.
PERIOD_S = 60.0


@dataclass(frozen=True)
class _WatchedZone:
    name: str
    temperature: Callable[[], float]
    band: ComfortBand
    node: Optional[int]


class ComfortEnvelopeChecker(FaultWindowMixin, InvariantChecker):
    """Comfort excursions only inside declared fault windows.

    Zones are sampled every :data:`PERIOD_S`.

    Parameters
    ----------
    margin_c:
        Extra envelope width beyond each zone's band: small controller
        overshoot (bang-bang hysteresis, sensor noise) is not a safety
        event.
    settle_s:
        Startup grace — zones start away from their setpoint and the
        controller needs pull-in time.
    """

    name = "safety.comfort"

    def __init__(self, margin_c: float = 0.5, settle_s: float = 0.0) -> None:
        super().__init__()
        self.margin_c = margin_c
        self.settle_s = settle_s
        self._zones: List[_WatchedZone] = []
        self.samples = 0

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def watch(self, name: str, temperature: Callable[[], float],
              band: ComfortBand, node: Optional[int] = None) -> None:
        """Watch one temperature signal against ``band``."""
        self._zones.append(_WatchedZone(name, temperature, band, node))

    def watch_zone(self, zone) -> None:
        """Convenience: watch an :class:`~repro.safety.hvac.HvacZone`."""
        self.watch(zone.name, lambda: zone.zone.temperature_c, zone.band,
                   node=zone.node.node_id)

    # ------------------------------------------------------------------
    def _setup(self) -> None:
        self.sample_every(PERIOD_S, self._sample)

    def _sample(self) -> None:
        self.samples += 1
        now = self.sim.now
        if now < self.settle_s or self.in_fault_window(now):
            return
        for zone in self._zones:
            temperature = zone.temperature()
            excursion = zone.band.violation_degrees(temperature)
            if excursion > self.margin_c:
                self.record("comfort_envelope_breach", node=zone.node,
                            zone=zone.name, temperature_c=temperature,
                            excursion_c=excursion,
                            band=(zone.band.lower_c, zone.band.upper_c))
