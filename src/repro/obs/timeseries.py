"""repro.obs.timeseries — the windowed telemetry plane.

End-of-run snapshots answer "what happened overall"; a
monitoring plane must answer "what is happening *now*, and what was
happening just before it broke".  The :class:`TelemetryEngine` scrapes
the run's metrics :class:`~repro.obs.registry.Registry` on a fixed
sim-time cadence into :class:`TelemetryWindow` values.  A window *is* a
:class:`~repro.obs.registry.MetricsSnapshot` of its interval plus an
``index``/``start``/``end`` header, so everything that reads a snapshot
reads a window:

- **counters** hold *deltas* over the window (rates, not totals);
- **gauges** hold end-of-window *levels*;
- **histograms** hold the observations recorded *during* the window.

On the wire a window is :meth:`MetricsSnapshot.to_jsonable` plus that
header under the format tag ``repro.window/2``; ``repro tail``,
``export_run`` and the ``report --live`` sink all go through that one
codec.

Memory stays bounded two ways:

1. *retention ring* — only the last :data:`RETENTION` windows are kept
   (a ``deque(maxlen=...)``; evictions are counted, never silent);
2. *zero suppression* — quiet series contribute nothing to a window.

Determinism: the scrape schedule is pure sim-time (fixed phase — no RNG
draw, honouring the same transparency contract as the checkers) and
histogram series are read in sorted-key order, so a window is a pure
function of the run.

The engine is deliberately **not** free: it schedules simulator events
(like :class:`~repro.obs.health.NodeHealthSampler`), so it only exists
when ``SystemConfig(telemetry_interval_s=...)`` is set and the
zero-diff guarantees of uninstrumented runs are untouched by default.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass
from typing import Any, ClassVar, Dict, IO, List, Optional

from repro.obs.registry import (MetricsSnapshot, Registry, SeriesKey,
                                json_int, json_number)
from repro.sim.kernel import Simulator
from repro.sim.timers import PeriodicTimer

__all__ = ["RETENTION", "TelemetryEngine", "TelemetryWindow"]

#: Windows the engine keeps; older ones are evicted and counted in
#: :attr:`TelemetryEngine.dropped`.
RETENTION = 120


@dataclass
class TelemetryWindow(MetricsSnapshot):
    """One closed scrape interval: its metrics plus where it sits."""

    FORMAT: ClassVar[str] = "repro.window/2"

    index: int = 0
    start: float = 0.0
    end: float = 0.0

    def to_jsonable(self) -> Dict[str, Any]:
        payload = super().to_jsonable()
        payload.update(index=self.index, start=self.start, end=self.end)
        return payload

    @classmethod
    def from_jsonable(cls, payload: Any) -> "TelemetryWindow":
        window = super().from_jsonable(payload)
        window.index = json_int(payload.get("index"), "index")
        window.start = json_number(payload.get("start"), "start")
        window.end = json_number(payload.get("end"), "end")
        return window


def check_interval(interval_s: float,
                   name: str = "TelemetryEngine.interval_s") -> None:
    """Refuse a scrape period that is not finite and positive, naming
    the field ``name`` it came from: NaN would fail only at the first
    scrape, and inf would never scrape."""
    if not 0.0 < interval_s < math.inf:
        raise ValueError(f"{name} must be finite and positive: {interval_s!r}")


class TelemetryEngine:
    """Scrapes a :class:`Registry` into fixed sim-time windows.

    The engine is registry-agnostic: wire it to a bare simulator +
    registry (benchmarks, property tests), or let
    :class:`~repro.core.system.IIoTSystem` build it over the run's
    observability bundle.  Assign :attr:`sink` a
    writable text handle to stream each closed window as one JSON line.
    """

    def __init__(
        self,
        sim: Simulator,
        registry: Registry,
        interval_s: float,
    ) -> None:
        check_interval(interval_s)
        self.sim = sim
        self.registry = registry
        self.interval_s = interval_s
        self.sink: Optional[IO[str]] = None
        self.windows_closed = 0
        self.dropped = 0
        self._ring: "deque[TelemetryWindow]" = deque(maxlen=RETENTION)
        self._last_counters: Dict[SeriesKey, float] = {}
        #: Observations each histogram series had at the previous scrape.
        self._last_hist: Dict[SeriesKey, int] = {}
        #: The registry's histogram keys in scrape order (sorted by repr).
        self._hist_order: List[SeriesKey] = []
        self._last_start = 0.0
        # Fixed phase: the first scrape lands exactly one interval in.
        # Passing an explicit phase keeps the engine from drawing RNG —
        # telemetry must never perturb the run it is observing.
        self._timer = PeriodicTimer(sim, interval_s, self._scrape,
                                    phase=interval_s)
        self._started = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin scraping (first window closes one interval in)."""
        if self._started:
            return
        self._started = True
        self._last_start = self.sim.now
        self._timer.start()

    # ------------------------------------------------------------------
    @property
    def windows(self) -> List[TelemetryWindow]:
        """The retained windows, oldest first."""
        return list(self._ring)

    @property
    def last_window(self) -> Optional[TelemetryWindow]:
        return self._ring[-1] if self._ring else None

    # ------------------------------------------------------------------
    # scraping
    # ------------------------------------------------------------------
    def _scrape(self) -> None:
        now = self.sim.now
        window = TelemetryWindow(index=self.windows_closed,
                                 start=self._last_start, end=now)
        self._last_start = now
        registry = self.registry

        # counters: deltas since the previous scrape, with zero deltas
        # suppressed.
        last = self._last_counters
        counters = window.counters
        # A series, once read, is read at every later scrape.
        self._last_counters = registry.counter_values()
        for key, value in self._last_counters.items():
            delta = value - last.get(key, 0.0)
            if delta != 0.0:
                counters[key] = delta

        # gauges: end-of-window levels.
        window.gauges = dict(registry.gauges)

        # histograms: the observations recorded since the previous
        # scrape, in sorted-key order; zero-activity series suppressed.
        last_hist = self._last_hist
        histograms = window.histograms
        table = registry.histograms
        if len(self._hist_order) != len(table):
            # A registry never drops a series: a new length is a new one.
            self._hist_order = sorted(table, key=repr)
        for key in self._hist_order:
            values = table[key]
            seen = last_hist.get(key, 0)
            if len(values) != seen:
                last_hist[key] = len(values)
                histograms[key] = tuple(values[seen:])

        if len(self._ring) == self._ring.maxlen:
            self.dropped += 1
        self._ring.append(window)
        self.windows_closed += 1
        if self.sink is not None:
            self.sink.write(json.dumps(window.to_jsonable(),
                                       sort_keys=True) + "\n")
            self.sink.flush()
