"""A lightweight security anomaly monitor.

Watches the trace stream for authentication rejections and actuation
anomalies and raises alarms past thresholds — the "slowly building up"
knowledge of novel threats the paper mentions, in minimum viable form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.sim.kernel import Simulator
from repro.sim.trace import TraceLog, TraceRecord


@dataclass
class SecurityAlarm:
    """One raised alarm."""

    time: float
    kind: str
    node: Optional[int]
    detail: Dict[str, object] = field(default_factory=dict)


class AnomalyDetector:
    """Threshold detector over trace categories."""

    def __init__(
        self,
        sim: Simulator,
        trace: TraceLog,
        rejection_threshold: int = 5,
        window_s: float = 300.0,
    ) -> None:
        self.sim = sim
        self.trace = trace
        self.rejection_threshold = rejection_threshold
        self.window_s = window_s
        self.alarms: List[SecurityAlarm] = []
        self._rejections: Dict[int, List[float]] = {}
        trace.subscribe("security.rejected", self._on_rejection)

    def _on_rejection(self, record: TraceRecord) -> None:
        node = record.node if record.node is not None else -1
        events = self._rejections.setdefault(node, [])
        events.append(record.time)
        horizon = record.time - self.window_s
        events[:] = [t for t in events if t >= horizon]
        if len(events) >= self.rejection_threshold:
            events.clear()
            alarm = SecurityAlarm(
                time=record.time,
                kind="auth_rejection_burst",
                node=node,
                detail={"count": self.rejection_threshold,
                        "window_s": self.window_s,
                        "suspect_src": record.data.get("src")},
            )
            self.alarms.append(alarm)
            self.trace.emit(record.time, "security.alarm", node=node,
                            kind=alarm.kind)
