"""Metrics-snapshot diffing: the regression-hunting workhorse.

``python -m repro diff A.json B.json`` loads two exported files —
:class:`~repro.obs.registry.MetricsSnapshot` exports (``repro report
--export``, ``repro dependability --export``,
:func:`repro.obs.export.write_metrics_json`) or ``repro.explain/1``
attribution tables (``repro explain --export``) — aligns every series,
and reports relative deltas.  ``--fail-on R`` makes the exit code
non-zero when any aligned series moved by more than the fraction ``R``.
This is the one comparison every byte-identity gate rests on:
``benchmarks/gates.py`` calls :func:`diff_snapshots` at ``R = 0`` for
each committed baseline, which is how a silent behaviour change (the
PR-2 medium rework's lost deliveries) fails a PR.

Alignment rules: counters and gauges compare value-to-value;
histograms compare count, sum, p50 and p95 as four derived series; an
attribution table compares ``explain.seconds{layer}``,
``explain.share{layer}`` and ``explain.total_s``.  A series present on
only one side, a number that became NaN (or the reverse) and a move
away from zero have no finite relative change: they are always
reported, and count as failures under any ``--fail-on``, since an
appearing/disappearing metric is a behaviour change too.  NaN on both
sides is equality.
"""

from __future__ import annotations

import argparse
import json
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.metrics import percentile
from repro.obs.analysis import EXPLAIN_FORMAT
from repro.obs.registry import MetricsSnapshot, json_number


@dataclass
class MetricDelta:
    """One aligned series and how far it moved."""

    kind: str
    name: str
    labels: Tuple[Tuple[str, Any], ...]
    a: Optional[float]
    b: Optional[float]

    @property
    def one_sided(self) -> bool:
        return self.a is None or self.b is None

    @property
    def rel(self) -> float:
        """Relative change |b-a|/|a|, never NaN; inf where there is no
        finite ratio (one-sided, number <-> NaN, away from zero)."""
        if self.one_sided:
            return math.inf
        a_nan, b_nan = math.isnan(self.a), math.isnan(self.b)
        if self.a == self.b or (a_nan and b_nan):
            return 0.0
        if a_nan or b_nan or self.a == 0.0:
            return math.inf
        return abs(self.b - self.a) / abs(self.a)

    @property
    def rel_text(self) -> str:
        if self.one_sided:
            return "new/gone"
        if self.rel == math.inf:
            nan = math.isnan(self.a) or math.isnan(self.b)
            return "nan" if nan else "from 0"
        return f"{self.rel * 100:+.1f}%"

    @property
    def key(self) -> str:
        label_str = ",".join(f"{k}={v}" for k, v in self.labels)
        return f"{self.name}{{{label_str}}}" if label_str else self.name


def _scalar_series(snap: MetricsSnapshot) -> Dict[Tuple[str, str, Tuple], float]:
    """Flatten a snapshot into comparable scalar series."""
    out: Dict[Tuple[str, str, Tuple], float] = {}
    for (name, labels), value in snap.counters.items():
        out[("counter", name, labels)] = value
    for (name, labels), value in snap.gauges.items():
        out[("gauge", name, labels)] = value
    for (name, labels), values in snap.histograms.items():
        out[("histogram", f"{name}.count", labels)] = float(len(values))
        out[("histogram", f"{name}.sum", labels)] = sum(values)
        if values:
            out[("histogram", f"{name}.p50", labels)] = percentile(values, 0.5)
            out[("histogram", f"{name}.p95", labels)] = percentile(values, 0.95)
    return out


def diff_snapshots(
    a: MetricsSnapshot, b: MetricsSnapshot
) -> List[MetricDelta]:
    """Every aligned (and one-sided) series, sorted by descending
    relative change, ties broken by key for determinism."""
    series_a = _scalar_series(a)
    series_b = _scalar_series(b)
    deltas: List[MetricDelta] = []
    for key in set(series_a) | set(series_b):
        kind, name, labels = key
        deltas.append(MetricDelta(
            kind=kind, name=name, labels=labels,
            a=series_a.get(key), b=series_b.get(key),
        ))
    # Series with no finite ratio (rel=inf) first, then by descending
    # rel; key breaks ties so the ordering is deterministic.
    deltas.sort(key=lambda d: (0 if d.rel == math.inf else 1,
                               -min(d.rel, 1e18), d.key))
    return deltas


def snapshot_of(payload: Any) -> MetricsSnapshot:
    """An exported payload as the snapshot :func:`diff_snapshots` aligns.

    A ``repro.metrics/1`` snapshot decodes as itself; a
    ``repro.explain/1`` attribution table flattens to gauges —
    ``explain.seconds{layer}``, ``explain.share{layer}``,
    ``explain.total_s`` — so a layer that vanished or appeared is a
    one-sided series like any other.  A malformed payload of either
    kind raises ``ValueError`` and nothing else.
    """
    if not isinstance(payload, dict) or payload.get("format") != EXPLAIN_FORMAT:
        return MetricsSnapshot.from_jsonable(payload)
    snap = MetricsSnapshot()
    snap.gauges[("explain.total_s", ())] = json_number(payload.get("total_s"),
                                                       "total_s")
    layers = payload.get("layers")
    if not isinstance(layers, dict):
        raise ValueError("layers: expected an object")
    for layer, info in layers.items():
        where = f"layers[{layer!r}]"
        if not isinstance(info, dict):
            raise ValueError(f"{where}: expected an object")
        labels = (("layer", layer),)
        snap.gauges[("explain.seconds", labels)] = json_number(
            info.get("seconds"), where)
        snap.gauges[("explain.share", labels)] = json_number(
            info.get("share"), where)
    return snap


def load_snapshot(path: str) -> MetricsSnapshot:
    with open(path, "r", encoding="utf-8") as handle:
        return snapshot_of(json.load(handle))


def _share_shift(deltas: List[MetricDelta]) -> Optional[str]:
    """Which layer's share of an attribution table moved most, in
    percentage points — read off the ``explain.share`` deltas."""
    shifts = [(((d.b or 0.0) - (d.a or 0.0)) * 100.0, dict(d.labels)["layer"])
              for d in deltas if d.name == "explain.share"]
    if not shifts:
        return None
    shift_pp, layer = max(shifts, key=lambda s: (abs(s[0]), s[1]))
    if not shift_pp:
        return None
    return f"  largest share shift: {layer} ({shift_pp:+.1f}pp)"


def render_deltas(
    deltas: List[MetricDelta],
    threshold: float = 0.0,
    top: int = 40,
    show_all: bool = False,
) -> str:
    changed = [d for d in deltas if d.rel > threshold]
    lines = [
        f"{len(deltas)} aligned series, {len(changed)} over "
        f"threshold {threshold:g}",
    ]
    shown = deltas if show_all else changed[:top]
    if changed and not show_all and len(changed) > top:
        lines[0] += f" (showing top {top})"
    if shown:
        width = max(len(d.key) for d in shown)
        width = min(width, 64)
        for d in shown:
            a = "-" if d.a is None else f"{d.a:g}"
            b = "-" if d.b is None else f"{d.b:g}"
            marker = "!" if d.rel > threshold else " "
            lines.append(f" {marker} {d.key:<{width}}  {a} -> {b}  "
                         f"({d.rel_text})")
    else:
        lines.append("  no differences")
    shift = _share_shift(deltas)
    if shift:
        lines.append(shift)
    return "\n".join(lines)


def deltas_jsonable(
    deltas: List[MetricDelta],
    fail_on: Optional[float],
    exit_code: int,
) -> Dict[str, Any]:
    """The machine-readable diff shape behind ``repro diff --json``.

    Stable interchange format ``repro.diff/1``; ``rel`` is null where
    there is no finite ratio (JSON has no infinity).
    """
    threshold = fail_on if fail_on is not None else 0.0
    return {
        "format": "repro.diff/1",
        "series": len(deltas),
        "changed": sum(1 for d in deltas if d.rel > threshold),
        "fail_on": fail_on,
        "exit": exit_code,
        "deltas": [
            {
                "key": d.key,
                "kind": d.kind,
                "name": d.name,
                "labels": dict(d.labels),
                "a": d.a,
                "b": d.b,
                "rel": None if d.rel == math.inf else d.rel,
                "one_sided": d.one_sided,
                "over_threshold": d.rel > threshold,
            }
            for d in deltas
        ],
    }


def diff_main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point.  Exit codes: 0 = within threshold, 1 = at least
    one series moved more than ``--fail-on``, 2 = usage/load error."""
    parser = argparse.ArgumentParser(
        prog="python -m repro diff",
        description="Diff two exported metrics snapshots or two "
                    "exported latency-attribution tables.",
    )
    parser.add_argument("snapshot_a", help="baseline JSON")
    parser.add_argument("snapshot_b", help="candidate JSON")
    parser.add_argument("--fail-on", type=float, default=None, metavar="REL",
                        help="exit 1 when any series moves by more than this "
                             "relative fraction (e.g. 0.05 = 5%%)")
    parser.add_argument("--filter", default=None, metavar="PREFIX",
                        help="only consider metric names with this prefix")
    parser.add_argument("--top", type=int, default=40,
                        help="show at most this many changed series")
    parser.add_argument("--show-all", action="store_true",
                        help="list every aligned series, changed or not")
    parser.add_argument("--json", action="store_true",
                        help="emit the full delta list as repro.diff/1 JSON "
                             "instead of the human-readable table")
    args = parser.parse_args(argv)

    try:
        snap_a = load_snapshot(args.snapshot_a)
        snap_b = load_snapshot(args.snapshot_b)
    except (OSError, ValueError) as exc:
        if args.json:
            print(json.dumps({"format": "repro.diff/1", "error": str(exc),
                              "exit": 2}))
        else:
            print(f"error: {exc}")
        return 2

    deltas = diff_snapshots(snap_a, snap_b)
    if args.filter:
        deltas = [d for d in deltas if d.name.startswith(args.filter)]
    threshold = args.fail_on if args.fail_on is not None else 0.0
    exit_code = 0
    if args.fail_on is not None and any(d.rel > args.fail_on for d in deltas):
        exit_code = 1
    if args.json:
        print(json.dumps(deltas_jsonable(deltas, args.fail_on, exit_code),
                         indent=1, sort_keys=True))
    else:
        print(render_deltas(deltas, threshold=threshold, top=args.top,
                            show_all=args.show_all))
    return exit_code
