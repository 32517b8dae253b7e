"""Exporters: JSONL spans and telemetry, CSV/JSON metrics.

Each writer emits deterministically ordered records so exported files
are diffable across runs of the same seed.  Payload values that are not
JSON-native are rendered through ``repr`` rather than dropped.
"""

from __future__ import annotations

import csv
import json
import os
from typing import Any, Dict

from repro.obs.registry import MetricsSnapshot
from repro.obs.spans import SpanTracer
from repro.sim.trace import TraceLog


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return repr(value)


def write_spans_jsonl(tracer: SpanTracer, path: str) -> int:
    """One JSON object per span, trace-grouped, recording order inside
    a trace.  Returns the span count written."""
    count = 0
    with open(path, "w") as handle:
        for trace_id in tracer.trace_ids():
            for span in tracer.spans_for(trace_id):
                handle.write(json.dumps({
                    "trace_id": span.trace_id,
                    "span_id": span.span_id,
                    "parent_id": span.parent_id,
                    "category": span.category,
                    "node": span.node,
                    "start": span.start,
                    "end": span.end,
                    "data": _jsonable(span.data),
                }, sort_keys=True) + "\n")
                count += 1
    return count


def write_metrics_json(snapshot: MetricsSnapshot, path: str) -> int:
    """The snapshot in the ``repro diff`` interchange format.  Returns
    the series count written."""
    payload = snapshot.to_jsonable()
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return (len(payload["counters"]) + len(payload["gauges"])
            + len(payload["histograms"]))


def write_windows_jsonl(windows, path: str) -> int:
    """One JSON object per telemetry window (the ``repro tail`` wire
    format).  Accepts any iterable of
    :class:`~repro.obs.timeseries.TelemetryWindow`."""
    count = 0
    with open(path, "w") as handle:
        for window in windows:
            handle.write(json.dumps(window.to_jsonable(), sort_keys=True) + "\n")
            count += 1
    return count


def write_metrics_csv(snapshot: MetricsSnapshot, path: str) -> int:
    """The snapshot's flat rows as CSV.  Returns the row count."""
    rows = snapshot.rows()
    columns = ["kind", "name", "labels", "value", "count", "p50", "p95"]
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=columns, restval="")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    return len(rows)


def write_explain_txt(spans: SpanTracer, snapshot: MetricsSnapshot,
                      path: str) -> int:
    """The rendered latency-attribution waterfall for the run's p95
    ``net.latency_s`` exemplars.  Returns the number of exemplar traces
    attributed (0 writes nothing — exemplars off or none recorded)."""
    from repro.obs.analysis import analyze_run, render_explain
    payload = analyze_run(spans, snapshot)
    if payload is None:
        return 0
    with open(path, "w") as handle:
        handle.write(render_explain(payload) + "\n")
    return len(payload["traces"])


def export_run(
    trace: TraceLog,
    directory: str,
    snapshot: MetricsSnapshot = None,
) -> Dict[str, int]:
    """Write every artifact a run produced into ``directory``.

    Exports whatever observability state is attached to ``trace``:
    span JSONL when a bundle is attached, metrics CSV when a snapshot is
    given (or a registry is attached), the latency-attribution
    ``explain.txt`` when exemplar traces exist, and the telemetry
    windows when an engine is attached.
    """
    os.makedirs(directory, exist_ok=True)
    written: Dict[str, int] = {}
    obs = trace.obs
    if obs is not None:
        written["spans.jsonl"] = write_spans_jsonl(
            obs.spans, os.path.join(directory, "spans.jsonl"))
    if snapshot is None and obs is not None:
        snapshot = obs.registry.snapshot()
    if snapshot is not None:
        written["metrics.csv"] = write_metrics_csv(
            snapshot, os.path.join(directory, "metrics.csv"))
        written["metrics.json"] = write_metrics_json(
            snapshot, os.path.join(directory, "metrics.json"))
    if snapshot is not None and obs is not None and snapshot.exemplars:
        traces = write_explain_txt(
            obs.spans, snapshot, os.path.join(directory, "explain.txt"))
        if traces:
            written["explain.txt"] = traces
    telemetry = getattr(obs, "telemetry", None)
    if telemetry is not None:
        written["telemetry.jsonl"] = write_windows_jsonl(
            telemetry.windows, os.path.join(directory, "telemetry.jsonl"))
    return written
