"""repro.obs.recorder — the flight recorder.

A violation at hour 10 of a 50k-node run is undiagnosable from an
end-of-run snapshot (too aggregated) or a full-fidelity trace (too
expensive to keep).  The :class:`FlightRecorder` sits between: on a
*trigger* — any checker violation, or a fault-plan window opening — it
freezes a :class:`FlightDump` of

- the last K telemetry windows from the engine's retention ring (the
  metric weather just before the event), and
- the recent *pinned* spans (``fault.*``, ``rnfd.verdict``,
  ``rpl.parent_switch`` — the categories the ring buffer never evicts,
  so they exist at every sampling rate).

Every bound is a module constant: :data:`LAST_K` windows per dump,
pinned spans from the last :data:`SPAN_LOOKBACK_S` seconds, at most
:data:`MAX_SPANS` of them, and at most :data:`MAX_DUMPS` dumps per run.

Dumps ride into :class:`~repro.checking.sweep.ReproBundle`, so a
failing seed's bundle carries its own black-box recording next to the
trace tail and span trees.

Triggers are wired without import cycles: ``checking.base`` and
``faults.plan`` look up ``trace.obs.recorder`` dynamically and call
:meth:`on_violation` / :meth:`on_fault_window` when one is attached.
The recorder never mutates the system, draws RNG, or schedules events —
the same transparency contract the checkers obey.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs.spans import SpanTracer
from repro.obs.timeseries import TelemetryEngine, TelemetryWindow

__all__ = ["FlightDump", "FlightRecorder"]

#: Telemetry windows frozen into each dump (the most recent ones).
LAST_K = 16
#: How far back before the trigger a pinned span may start.
SPAN_LOOKBACK_S = 600.0
#: Pinned spans kept per dump (the most recent ones).
MAX_SPANS = 64
#: Dumps kept per run; later triggers are counted, not stored.
MAX_DUMPS = 8


@dataclass
class FlightDump:
    """One frozen black-box record (plain data, picklable)."""

    trigger: Dict[str, Any]
    at_s: float
    windows: List[TelemetryWindow] = field(default_factory=list)
    spans: List[Dict[str, Any]] = field(default_factory=list)
    #: Worst exemplar trace ids per histogram metric at dump time —
    #: the traces ``repro explain --trace`` attributes post-mortem.
    exemplars: Dict[str, List[int]] = field(default_factory=dict)

    def to_jsonable(self) -> Dict[str, Any]:
        payload = {
            "format": "repro.flightdump/1",
            "trigger": self.trigger,
            "at_s": self.at_s,
            "windows": [w.to_jsonable() for w in self.windows],
            "spans": self.spans,
        }
        if self.exemplars:
            # Additive key (same contract as metrics "exemplars"):
            # absent unless exemplars were recorded, so pre-exemplar
            # flight dumps keep their exact JSON shape.
            payload["exemplars"] = {metric: list(traces)
                                    for metric, traces
                                    in sorted(self.exemplars.items())}
        return payload

    def render(self) -> str:
        """Human-readable dump block (the repro-bundle presentation)."""
        trigger = ", ".join(f"{k}={v}" for k, v in sorted(self.trigger.items()))
        lines = [f"flight dump @ t={self.at_s:.3f}s  [{trigger}]"]
        for window in self.windows:
            active = len(window.counters) + len(window.histograms)
            lines.append(
                f"  window {window.index}  t={window.start:.1f}..{window.end:.1f}s"
                f"  active_series={active}")
        for span in self.spans:
            end = span.get("end")
            end_s = f"{end:.3f}" if end is not None else "open"
            lines.append(f"  span {span['category']} node={span['node']}"
                         f" t={span['start']:.3f}..{end_s}")
        for metric, traces in sorted(self.exemplars.items()):
            lines.append(f"  exemplars {metric}: "
                         + ", ".join(str(t) for t in traces))
        return "\n".join(lines)


class FlightRecorder:
    """Freezes telemetry + pinned spans when something goes wrong.

    Memory is bounded by the module constants: a fault storm must not
    grow the recorder without bound, so triggers beyond
    :data:`MAX_DUMPS` are counted in :attr:`suppressed`, not stored.
    """

    def __init__(self, engine: TelemetryEngine, spans: SpanTracer) -> None:
        self.engine = engine
        self.spans = spans
        self.dumps: List[FlightDump] = []
        self.suppressed = 0

    # ------------------------------------------------------------------
    # triggers
    # ------------------------------------------------------------------
    def on_violation(self, violation: Any) -> Optional[FlightDump]:
        """Checker violation trigger (see ``InvariantChecker.record``)."""
        return self._dump({
            "kind": "violation",
            "checker": getattr(violation, "checker", "?"),
            "invariant": getattr(violation, "invariant", "?"),
            "node": getattr(violation, "node", None),
        }, at_s=getattr(violation, "time", self.engine.sim.now))

    def on_fault_window(self, kind: str, at_s: float,
                        **detail: Any) -> Optional[FlightDump]:
        """Fault-plan window-open trigger (``FaultPlanRuntime``)."""
        trigger = {"kind": "fault", "fault": kind}
        trigger.update(detail)
        return self._dump(trigger, at_s=at_s)

    # ------------------------------------------------------------------
    def _dump(self, trigger: Dict[str, Any], at_s: float) -> Optional[FlightDump]:
        if len(self.dumps) >= MAX_DUMPS:
            self.suppressed += 1
            return None
        dump = FlightDump(trigger=trigger, at_s=at_s,
                          windows=self.engine.recent(LAST_K),
                          spans=self._recent_pinned_spans(at_s),
                          exemplars=self._exemplar_links())
        self.dumps.append(dump)
        self.engine.registry.inc("recorder.dumps", trigger=trigger["kind"])
        return dump

    def _exemplar_links(self, per_metric: int = 4) -> Dict[str, List[int]]:
        """Worst exemplar traces per histogram metric at dump time."""
        snapshot = self.engine.registry.snapshot()
        return {metric: [trace for _value, trace
                         in snapshot.exemplars_for(metric)[:per_metric]]
                for metric in sorted({key[0] for key in snapshot.exemplars})}

    def _recent_pinned_spans(self, at_s: float) -> List[Dict[str, Any]]:
        tracer = self.spans
        horizon = at_s - SPAN_LOOKBACK_S
        rows = []
        for span in tracer.spans.values():
            if span.start < horizon or span.start > at_s:
                continue
            if not tracer._is_pinned(span.category):
                continue
            rows.append({"category": span.category, "node": span.node,
                         "start": span.start, "end": span.end,
                         "data": dict(span.data), "span_id": span.span_id})
        rows.sort(key=lambda r: (r["start"], r["span_id"]))
        return rows[-MAX_SPANS:]

    # ------------------------------------------------------------------
    def render_all(self) -> List[str]:
        """Rendered dump blocks plus a suppression note, if any."""
        out = [dump.render() for dump in self.dumps]
        if self.suppressed:
            out.append(f"({self.suppressed} further flight dumps suppressed "
                       f"beyond {MAX_DUMPS})")
        return out
