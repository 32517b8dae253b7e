"""repro.obs.timeseries — the windowed telemetry plane.

End-of-run snapshots (PR 3–4) answer "what happened overall"; a
monitoring plane must answer "what is happening *now*, and what was
happening just before it broke".  The :class:`TelemetryEngine` scrapes
the run's metrics :class:`~repro.obs.registry.Registry` on a fixed
sim-time cadence into :class:`TelemetryWindow` objects:

- **counters** appear as *deltas* over the window (rates, not totals);
- **gauges** appear as end-of-window *levels*;
- **histograms** appear as ``(count, sum)`` deltas.

Memory stays bounded at city scale three ways:

1. *retention ring* — only the last ``retention`` windows are kept
   (a ``deque(maxlen=...)``; evictions are counted, never silent);
2. *per-domain rollup* — when the topology exposes ``domain_of`` (the
   :class:`~repro.deployment.topology.CampusTopology` contract),
   per-node series are folded into per-building series before storage:
   counter/histogram deltas sum, gauge levels average.  50k nodes roll
   into dozens of domains;
3. *zero suppression* — quiet series contribute nothing to a window.

Determinism: the scrape schedule is pure sim-time (fixed phase — no RNG
draw, honouring the same transparency contract as the checkers), series
iterate in sorted-key order, and :class:`TelemetrySnapshot.merge`
concatenates per-trial windows *in the order given*, mirroring
:meth:`MetricsSnapshot.merge` so ``jobs=1`` vs ``jobs=N`` sweeps stay
byte-identical.

The engine is deliberately **not** free: it schedules simulator events
(like :class:`~repro.obs.health.NodeHealthSampler`), so it only exists
when ``SystemConfig(telemetry_interval_s=...)`` is set and the
zero-diff guarantees of uninstrumented runs are untouched by default.

:class:`AlertRule` adds the SLO layer: threshold and rate-of-change
predicates evaluated at every window close, emitting ``alert.fired``
counters (gateable by ``repro diff``) and pinned ``alert.*`` spans.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, IO, Iterable, List, Optional,
                    Sequence, Tuple)

from repro.obs.registry import Registry, SeriesKey
from repro.sim.kernel import Simulator
from repro.sim.timers import PeriodicTimer

__all__ = [
    "AlertRule",
    "TelemetryEngine",
    "TelemetrySnapshot",
    "TelemetryWindow",
    "window_from_jsonable",
    "window_to_jsonable",
]


@dataclass
class TelemetryWindow:
    """One closed scrape interval: plain data, picklable, comparable."""

    index: int
    start: float
    end: float
    #: counter deltas over the window (zero deltas suppressed)
    counters: Dict[SeriesKey, float] = field(default_factory=dict)
    #: gauge levels at window close (domain rollups are means)
    gauges: Dict[SeriesKey, float] = field(default_factory=dict)
    #: histogram activity as ``(count_delta, sum_delta)``
    histograms: Dict[SeriesKey, Tuple[float, float]] = field(default_factory=dict)
    #: names of alert rules that fired at this window's close
    alerts: Tuple[str, ...] = ()

    def counter_total(self, name: str) -> float:
        return sum(v for (n, _), v in self.counters.items() if n == name)


# ----------------------------------------------------------------------
# JSONL codec (the `repro tail` / `report --live` wire format)
# ----------------------------------------------------------------------
def window_to_jsonable(window: TelemetryWindow) -> Dict[str, Any]:
    def series(mapping: Dict[SeriesKey, Any]) -> List[Dict[str, Any]]:
        out = []
        for key in sorted(mapping, key=repr):
            name, labels = key
            value = mapping[key]
            out.append({"name": name, "labels": dict(labels),
                        "value": list(value) if isinstance(value, tuple) else value})
        return out

    return {
        "format": "repro.window/1",
        "index": window.index,
        "start": window.start,
        "end": window.end,
        "counters": series(window.counters),
        "gauges": series(window.gauges),
        "histograms": series(window.histograms),
        "alerts": list(window.alerts),
    }


def window_from_jsonable(payload: Dict[str, Any]) -> TelemetryWindow:
    if payload.get("format") != "repro.window/1":
        raise ValueError(f"not a telemetry window: format={payload.get('format')!r}")

    def key_of(entry: Dict[str, Any]) -> SeriesKey:
        return entry["name"], tuple(sorted(entry.get("labels", {}).items()))

    window = TelemetryWindow(index=int(payload["index"]),
                             start=float(payload["start"]),
                             end=float(payload["end"]),
                             alerts=tuple(payload.get("alerts", [])))
    for entry in payload.get("counters", []):
        window.counters[key_of(entry)] = float(entry["value"])
    for entry in payload.get("gauges", []):
        window.gauges[key_of(entry)] = float(entry["value"])
    for entry in payload.get("histograms", []):
        count, total = entry["value"]
        window.histograms[key_of(entry)] = (float(count), float(total))
    return window


@dataclass
class TelemetrySnapshot:
    """Frozen engine state: the retained windows plus eviction count.

    Merging follows the :class:`MetricsSnapshot` contract — *in the
    order given* — so per-trial telemetry merged in trial-index order
    is byte-identical for every ``jobs`` count.  Windows from different
    trials keep their own indices/times; consumers group by trial via
    ``window.index`` resets or simply treat the result as a log.
    """

    windows: List[TelemetryWindow] = field(default_factory=list)
    dropped: int = 0

    @classmethod
    def merge(cls, snapshots: Iterable["TelemetrySnapshot"]) -> "TelemetrySnapshot":
        merged = cls()
        for snap in snapshots:
            merged.windows.extend(snap.windows)
            merged.dropped += snap.dropped
        return merged

    def series(self, name: str, **labels: Any) -> List[Tuple[float, float]]:
        """``(window_end, value)`` points for one counter/gauge series."""
        key: SeriesKey = (name, tuple(sorted(labels.items())))
        points = []
        for window in self.windows:
            if key in window.counters:
                points.append((window.end, window.counters[key]))
            elif key in window.gauges:
                points.append((window.end, window.gauges[key]))
        return points

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "format": "repro.telemetry/1",
            "dropped": self.dropped,
            "windows": [window_to_jsonable(w) for w in self.windows],
        }

    @classmethod
    def from_jsonable(cls, payload: Dict[str, Any]) -> "TelemetrySnapshot":
        if payload.get("format") != "repro.telemetry/1":
            raise ValueError(f"not a telemetry snapshot: format={payload.get('format')!r}")
        return cls(windows=[window_from_jsonable(w) for w in payload.get("windows", [])],
                   dropped=int(payload.get("dropped", 0)))


@dataclass(frozen=True)
class AlertRule:
    """One SLO predicate evaluated at every window close.

    ``kind`` selects the window table (``"counter"`` delta, ``"gauge"``
    level, or ``"histogram_count"`` delta); ``op`` is ``">"`` or
    ``"<"``; with ``rate=True`` the predicate applies to the change
    versus the same series in the previous window.  A rule fires once
    per (window, series) match: an ``alert.fired`` counter labeled with
    the rule name plus the series labels, and a pinned ``alert.<name>``
    span covering the window.
    """

    name: str
    metric: str
    threshold: float
    op: str = ">"
    kind: str = "gauge"
    rate: bool = False

    def __post_init__(self) -> None:
        if self.op not in (">", "<"):
            raise ValueError(f"op must be '>' or '<', got {self.op!r}")
        if self.kind not in ("counter", "gauge", "histogram_count"):
            raise ValueError(f"unknown rule kind {self.kind!r}")

    def _table(self, window: TelemetryWindow) -> Dict[SeriesKey, float]:
        if self.kind == "counter":
            return window.counters
        if self.kind == "gauge":
            return window.gauges
        return {k: v[0] for k, v in window.histograms.items()}

    def evaluate(self, window: TelemetryWindow,
                 previous: Optional[TelemetryWindow]) -> List[Tuple[SeriesKey, float]]:
        """Matching ``(series key, offending value)`` pairs, sorted."""
        table = self._table(window)
        prev_table = self._table(previous) if previous is not None else {}
        hits = []
        for key in sorted(table, key=repr):
            if key[0] != self.metric:
                continue
            value = table[key]
            if self.rate:
                value = value - prev_table.get(key, 0.0)
            if (value > self.threshold) if self.op == ">" else (value < self.threshold):
                hits.append((key, value))
        return hits


class TelemetryEngine:
    """Scrapes a :class:`Registry` into fixed sim-time windows.

    The engine is registry-agnostic: wire it to a bare simulator +
    registry (benchmarks, property tests) or use :meth:`for_system` to
    adopt an :class:`~repro.core.system.IIoTSystem`'s observability
    bundle and campus domain map.
    """

    def __init__(
        self,
        sim: Simulator,
        registry: Registry,
        interval_s: float,
        retention: int = 120,
        domain_of: Optional[Callable[[int], Optional[str]]] = None,
        spans: Any = None,
        rules: Sequence[AlertRule] = (),
        sink: Optional[IO[str]] = None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        if retention <= 0:
            raise ValueError("retention must be positive")
        from collections import deque
        self.sim = sim
        self.registry = registry
        self.interval_s = interval_s
        self.retention = retention
        self.domain_of = domain_of
        self.spans = spans
        self.rules = list(rules)
        self.sink = sink
        self.windows_closed = 0
        self.dropped = 0
        self.alerts_fired = 0
        self._ring: "deque[TelemetryWindow]" = deque(maxlen=retention)
        self._last_counters: Dict[SeriesKey, float] = {}
        self._last_hist: Dict[SeriesKey, Tuple[float, float]] = {}
        self._last_start = 0.0
        # Fixed phase: the first scrape lands exactly one interval in.
        # Passing an explicit phase keeps the engine from drawing RNG —
        # telemetry must never perturb the run it is observing.
        self._timer = PeriodicTimer(sim, interval_s, self._scrape,
                                    phase=interval_s)
        self._started = False

    # ------------------------------------------------------------------
    @classmethod
    def for_system(cls, system: Any, interval_s: float,
                   rules: Sequence[AlertRule] = (),
                   sink: Optional[IO[str]] = None) -> "TelemetryEngine":
        """Engine over a built system's registry, spans, and domains."""
        obs = system.trace.obs
        if obs is None:
            raise ValueError(
                "telemetry needs an observability bundle; build the system "
                "with SystemConfig(observability=True)")
        domain_of = getattr(system.topology, "domain_of", None)
        return cls(system.sim, obs.registry, interval_s=interval_s,
                   domain_of=domain_of, spans=obs.spans, rules=rules,
                   sink=sink)

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin scraping (first window closes one interval in)."""
        if self._started:
            return
        self._started = True
        self._last_start = self.sim.now
        self._timer.start()

    def stop(self) -> None:
        if not self._started:
            return
        self._started = False
        self._timer.stop()

    # ------------------------------------------------------------------
    @property
    def windows(self) -> List[TelemetryWindow]:
        """The retained windows, oldest first."""
        return list(self._ring)

    @property
    def last_window(self) -> Optional[TelemetryWindow]:
        return self._ring[-1] if self._ring else None

    def snapshot(self) -> TelemetrySnapshot:
        return TelemetrySnapshot(windows=list(self._ring), dropped=self.dropped)

    def recent(self, k: int) -> List[TelemetryWindow]:
        """The last ``k`` retained windows, oldest first."""
        if k <= 0:
            return []
        ring = self._ring
        return list(ring)[-k:]

    # ------------------------------------------------------------------
    # scraping
    # ------------------------------------------------------------------
    def _rolled_key(self, key: SeriesKey) -> SeriesKey:
        """Fold a ``node=`` label into its campus domain, if mapped."""
        name, labels = key
        domain_of = self.domain_of
        if domain_of is None:
            return key
        for i, (label, value) in enumerate(labels):
            if label == "node":
                domain = domain_of(value)
                if domain is None:
                    return key
                rolled = labels[:i] + (("domain", domain),) + labels[i + 1:]
                return name, tuple(sorted(rolled))
        return key

    def _scrape(self) -> None:
        now = self.sim.now
        window = TelemetryWindow(index=self.windows_closed,
                                 start=self._last_start, end=now)
        self._last_start = now
        registry = self.registry

        # counters: deltas since the previous scrape, rolled up, with
        # zero deltas suppressed.
        last = self._last_counters
        for key, instrument in registry._counters.items():
            value = instrument.value
            delta = value - last.get(key, 0.0)
            last[key] = value
            if delta != 0.0:
                rolled = self._rolled_key(key)
                window.counters[rolled] = window.counters.get(rolled, 0.0) + delta

        # gauges: end-of-window levels; domain rollups average so a
        # building's gauge is comparable to a node's.
        if self.domain_of is None:
            for key, instrument in registry._gauges.items():
                window.gauges[key] = instrument.value
        else:
            sums: Dict[SeriesKey, float] = {}
            counts: Dict[SeriesKey, int] = {}
            for key in sorted(registry._gauges, key=repr):
                rolled = self._rolled_key(key)
                sums[rolled] = sums.get(rolled, 0.0) + registry._gauges[key].value
                counts[rolled] = counts.get(rolled, 0) + 1
            for rolled, total in sums.items():
                window.gauges[rolled] = total / counts[rolled]

        # histograms: activity deltas, rolled up, zero-activity series
        # suppressed.
        last_hist = self._last_hist
        for key, instrument in registry._histograms.items():
            count, total = float(instrument.count), float(instrument.sum)
            prev_count, prev_sum = last_hist.get(key, (0.0, 0.0))
            last_hist[key] = (count, total)
            if count != prev_count:
                rolled = self._rolled_key(key)
                prior = window.histograms.get(rolled, (0.0, 0.0))
                window.histograms[rolled] = (prior[0] + count - prev_count,
                                             prior[1] + total - prev_sum)

        self._evaluate_rules(window)

        if len(self._ring) == self._ring.maxlen:
            self.dropped += 1
        self._ring.append(window)
        self.windows_closed += 1
        if self.sink is not None:
            self.sink.write(json.dumps(window_to_jsonable(window),
                                       sort_keys=True) + "\n")
            self.sink.flush()

    # ------------------------------------------------------------------
    def _evaluate_rules(self, window: TelemetryWindow) -> None:
        if not self.rules:
            return
        previous = self._ring[-1] if self._ring else None
        fired: List[str] = []
        for rule in self.rules:
            hits = rule.evaluate(window, previous)
            if not hits:
                continue
            fired.append(rule.name)
            for key, value in hits:
                self.alerts_fired += 1
                self.registry.inc("alert.fired", rule=rule.name,
                                  **dict(key[1]))
                if self.spans is not None:
                    ctx = self.spans.start(None, f"alert.{rule.name}",
                                           node=None, t=window.start,
                                           metric=key[0], value=value,
                                           labels=dict(key[1]),
                                           window=window.index)
                    # Link the firing to its worst recorded exemplar
                    # traces so `repro explain --trace` can attribute
                    # the latency behind the SLO breach.
                    exemplars = [trace for _value, trace
                                 in self.registry.exemplars_for(key[0])[:4]]
                    if exemplars:
                        self.spans.annotate(ctx, exemplars=exemplars)
                    self.spans.finish(ctx, t=window.end)
        if fired:
            window.alerts = tuple(fired)
