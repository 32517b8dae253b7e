"""Causal latency attribution over reconstructed span trees.

The span forest (repro.obs.spans) records *what happened* to every
sampled delivery: the CoAP request, the datagram beneath it, one
``net.hop`` per forwarding attempt, ``net.fragment`` children when 6Lo
fragmentation kicks in, one ``mac.job`` per link transmission, and one
``radio.airtime`` per over-the-air attempt.  This module turns that
record into *why it took that long*:

- :func:`attribute_trace` tiles an anchor span's interval with
  :class:`Segment`\\ s, each charged to a named layer (``mac.queue``,
  ``mac.access``, ``airtime``, ``mac.retry_gap``, ``net.retry`` …).
  The segments **exactly partition** the anchor's duration: consecutive
  boundaries are float-equal, the first starts at the anchor's start
  and the last ends at its end, so the segment durations telescope to
  the measured end-to-end latency in exact arithmetic
  (:meth:`Attribution.verify_partition` checks with ``Fraction``).
- :func:`critical_path` walks the longest-pole child chain root→leaf.
- :func:`analyze_run` aggregates attributions over the histogram
  exemplar traces (repro.obs.registry) behind a percentile of a metric
  and freezes them into the ``repro.explain/1`` payload.
- :func:`render_explain` and :func:`render_trace` are the waterfall
  and the single-trace drilldown ``python -m repro explain``
  (:func:`repro.app.report.explain_main`) prints.  Two exported
  payloads compare with ``python -m repro diff``
  (:func:`repro.obs.diff.snapshot_of`), which names the layer whose
  share moved most.

Attribution rules (deterministic by construction):

- Children are visited in ``(start, span_id)`` order and clipped to
  their parent's window; where siblings overlap, time belongs to the
  *earliest* span occupying it (multi-hop pipelining: the next hop
  starts before the previous hop's ACK turnaround finishes).
- A span's own time — the parts of its window no child covers — is
  classified by its category and by *phase*: before the first child
  (``pre``), between children (``mid``), after the last (``post``).
- ``mac.job`` splits its pre-phase at the ``service_start`` waypoint
  (annotated by the MAC when the job leaves the queue) into queue wait
  and channel access (backoff/CCA).
- Zero-duration event spans never produce segments and never advance
  the phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.registry import MetricsSnapshot, log_bucket, percentile
from repro.obs.spans import Span, SpanNode, SpanTracer

#: The payload format tag of an exported attribution table.
EXPLAIN_FORMAT = "repro.explain/1"


class AttributionError(Exception):
    """The segments produced for a trace failed the partition invariant."""


@dataclass(frozen=True)
class Segment:
    """One attributed slice of the anchor span's timeline."""

    start: float
    end: float
    layer: str
    span_id: int
    node: Optional[int]

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Attribution:
    """Every segment of one trace, tiling the anchor span's interval."""

    trace_id: int
    anchor: Span
    segments: List[Segment] = field(default_factory=list)

    @property
    def total_s(self) -> float:
        """The anchor's measured duration (== the latency observation)."""
        end = self.anchor.end if self.anchor.end is not None else self.anchor.start
        return end - self.anchor.start

    def by_layer(self) -> Dict[str, float]:
        """Seconds charged to each layer, keys sorted."""
        totals: Dict[str, List[float]] = {}
        for seg in self.segments:
            totals.setdefault(seg.layer, []).append(seg.duration)
        return {layer: math.fsum(parts)
                for layer, parts in sorted(totals.items())}

    def verify_partition(self) -> bool:
        """Exact-arithmetic check that segments partition the anchor.

        The tiling makes segment durations telescope: in ``Fraction``
        arithmetic their sum equals ``end - start`` exactly, which is
        the "segments sum exactly to the measured latency" contract.
        """
        end = self.anchor.end if self.anchor.end is not None else self.anchor.start
        total = Fraction(end) - Fraction(self.anchor.start)
        acc = Fraction(0)
        for seg in self.segments:
            acc += Fraction(seg.end) - Fraction(seg.start)
        return acc == total


# ----------------------------------------------------------------------
# layer taxonomy
# ----------------------------------------------------------------------
def _own_time_layer(category: str, phase: str) -> str:
    """Layer charged for a span's own (un-childed) time in ``phase``."""
    if category == "radio.airtime":
        return "airtime"
    if category == "mac.job":
        return {"pre": "mac.access", "mid": "mac.retry_gap",
                "post": "mac.ack_wait"}[phase]
    if category == "net.fragment":
        return "frag"
    if category == "net.hop":
        return {"pre": "hop.dispatch", "mid": "hop.gap",
                "post": "hop.ack"}[phase]
    if category == "net.datagram":
        # mid-gaps between hop attempts are the routing layer healing
        # itself: link feedback, parent re-selection, re-route.
        return {"pre": "net.route", "mid": "net.retry",
                "post": "net.deliver"}[phase]
    if category == "coap.request":
        return "middleware"
    # Unknown categories degrade gracefully to their first dotted
    # segment so new span kinds stay attributable without edits here.
    return "other." + category.split(".", 1)[0]


def _gap_segments(span: Span, start: float, end: float,
                  phase: str) -> Iterable[Segment]:
    """Segments for one un-childed stretch of ``span``'s window."""
    if end <= start:
        return
    if span.category == "mac.job" and phase == "pre":
        # Split queue wait from channel access at the service_start
        # waypoint the MAC annotated when the job left the queue.
        service_start = span.data.get("service_start")
        if isinstance(service_start, (int, float)):
            if start < service_start < end:
                yield Segment(start, service_start, "mac.queue",
                              span.span_id, span.node)
                yield Segment(service_start, end, "mac.access",
                              span.span_id, span.node)
                return
            if service_start >= end:
                yield Segment(start, end, "mac.queue",
                              span.span_id, span.node)
                return
    yield Segment(start, end, _own_time_layer(span.category, phase),
                  span.span_id, span.node)


# ----------------------------------------------------------------------
# attribution
# ----------------------------------------------------------------------
def _effective_end(span: Span) -> float:
    return span.end if span.end is not None else span.start


def _attribute_node(node: SpanNode, lo: float, hi: float,
                    out: List[Segment]) -> None:
    """Tile ``[lo, hi]`` with segments from ``node``'s subtree."""
    span = node.span
    cursor = lo
    saw_child = False
    for child in node.children:
        child_end = min(_effective_end(child.span), hi)
        child_start = max(child.span.start, cursor)
        if child_end <= child_start:
            # Zero-duration events and fully-overlapped siblings leave
            # no window of their own; they neither produce segments nor
            # advance the phase.
            continue
        if child_start > cursor:
            out.extend(_gap_segments(span, cursor, child_start,
                                     "mid" if saw_child else "pre"))
        _attribute_node(child, child_start, child_end, out)
        cursor = child_end
        saw_child = True
        if cursor >= hi:
            break
    if cursor < hi:
        out.extend(_gap_segments(span, cursor, hi,
                                 "post" if saw_child else "pre"))


def _find_anchor(root: SpanNode, category: Optional[str],
                 value: Optional[float]) -> SpanNode:
    """The span the metric observation measured, or the root."""
    if category is None:
        return root
    fallback: Optional[SpanNode] = None
    for node in root.walk():
        if node.span.category != category:
            continue
        if fallback is None:
            fallback = node
        if value is None or node.span.data.get("latency") == value:
            return node
    return fallback if fallback is not None else root


def attribute_trace(tracer: SpanTracer, trace_id: int,
                    anchor_category: Optional[str] = None,
                    anchor_value: Optional[float] = None,
                    ) -> Optional[Attribution]:
    """Attribute one trace's anchor span; None when the trace is absent.

    ``anchor_category``/``anchor_value`` select the span a histogram
    observation measured (e.g. the ``net.datagram`` whose recorded
    ``latency`` equals the exemplar value); by default the trace root
    is attributed.  Raises :class:`AttributionError` if the produced
    segments fail the exact-partition invariant — that would mean the
    attributor, not the trace, is wrong.
    """
    tree = tracer.tree(trace_id)
    if tree is None:
        return None
    anchor = _find_anchor(tree, anchor_category, anchor_value)
    span = anchor.span
    lo, hi = span.start, _effective_end(span)
    segments: List[Segment] = []
    _attribute_node(anchor, lo, hi, segments)
    attribution = Attribution(trace_id=trace_id, anchor=span,
                              segments=segments)
    if not _tiles_exactly(segments, lo, hi):
        raise AttributionError(
            f"segments do not partition [{lo}, {hi}] of trace {trace_id}")
    return attribution


def _tiles_exactly(segments: Sequence[Segment], lo: float, hi: float) -> bool:
    """Structural tiling check: contiguous, gap-free, boundary-exact."""
    if not segments:
        return hi <= lo
    if segments[0].start != lo or segments[-1].end != hi:
        return False
    for prev, nxt in zip(segments, segments[1:]):
        if prev.end != nxt.start:
            return False
    return all(seg.end > seg.start for seg in segments)


def critical_path(tracer: SpanTracer, trace_id: int) -> List[Span]:
    """The root→leaf chain of longest-pole children (ties by span id)."""
    tree = tracer.tree(trace_id)
    if tree is None:
        return []
    path = [tree.span]
    node = tree
    while node.children:
        node = max(node.children,
                   key=lambda child: (_effective_end(child.span),
                                      child.span.span_id))
        path.append(node.span)
    return path


# ----------------------------------------------------------------------
# run-level analysis: exemplars → aggregated waterfall payload
# ----------------------------------------------------------------------
def resolve_metric(snapshot: MetricsSnapshot, name: str) -> Optional[str]:
    """Accept ``net.latency`` for ``net.latency_s`` and the like."""
    known = set()
    for mapping in (snapshot.histograms, snapshot.exemplars):
        known.update(key[0] for key in mapping)
    if name in known:
        return name
    if name + "_s" in known:
        return name + "_s"
    return None


def _metric_percentile(snapshot: MetricsSnapshot, metric: str,
                       fraction: float) -> Tuple[int, float]:
    """(observation count, percentile estimate) across label sets."""
    values = snapshot.histogram_values(metric)
    if not values:
        return 0, 0.0
    return len(values), percentile(values, fraction)


def select_exemplars(snapshot: MetricsSnapshot, metric: str,
                     fraction: float, max_traces: int,
                     ) -> List[Tuple[float, int]]:
    """Exemplar ``(value, trace_id)`` pairs behind the ``fraction``
    percentile: entries from the percentile's log bucket and above,
    worst first, falling back to the worst recorded when the tail
    buckets kept none."""
    entries = snapshot.exemplars_for(metric)
    if not entries:
        return []
    _count, estimate = _metric_percentile(snapshot, metric, fraction)
    floor_bucket = log_bucket(estimate)
    tail = [entry for entry in entries
            if log_bucket(entry[0]) >= floor_bucket]
    chosen = tail if tail else entries
    return chosen[:max_traces]


def analyze_run(spans: SpanTracer, snapshot: MetricsSnapshot,
                metric: str = "net.latency_s", p: float = 95.0,
                max_traces: int = 4,
                domain_of=None) -> Optional[Dict[str, Any]]:
    """Attribute the exemplar traces behind ``metric``'s ``p``-th
    percentile and freeze the aggregate into a ``repro.explain/1``
    payload.  None when the metric has no exemplars (observability or
    exemplars off, or no trace-carrying observation yet)."""
    resolved = resolve_metric(snapshot, metric)
    if resolved is None:
        return None
    anchor_category = "net.datagram" if resolved == "net.latency_s" else None
    count, estimate = _metric_percentile(snapshot, resolved, p / 100.0)
    traces: List[Dict[str, Any]] = []
    for value, trace_id in select_exemplars(snapshot, resolved, p / 100.0,
                                            max_traces):
        attribution = attribute_trace(
            spans, trace_id, anchor_category=anchor_category,
            anchor_value=value if anchor_category else None)
        if attribution is None:
            continue
        anchor = attribution.anchor
        domain = domain_of(anchor.node) if (
            domain_of is not None and anchor.node is not None) else None
        traces.append({
            "trace": trace_id,
            "value_s": value,
            "total_s": attribution.total_s,
            "node": anchor.node,
            "domain": domain,
            "layers": attribution.by_layer(),
            "critical_path": [span.category
                              for span in critical_path(spans, trace_id)],
        })
    if not traces:
        return None
    layer_totals: Dict[str, List[float]] = {}
    for entry in traces:
        for layer, seconds in entry["layers"].items():
            layer_totals.setdefault(layer, []).append(seconds)
    total = math.fsum(entry["total_s"] for entry in traces)
    layers = {
        layer: {"seconds": math.fsum(parts),
                "share": (math.fsum(parts) / total) if total else 0.0}
        for layer, parts in sorted(layer_totals.items())
    }
    domains = sorted({entry["domain"] for entry in traces
                      if entry["domain"] is not None})
    payload: Dict[str, Any] = {
        "format": EXPLAIN_FORMAT,
        "metric": resolved,
        "p": p,
        "count": count,
        "percentile_s": estimate,
        "total_s": total,
        "layers": layers,
        "traces": traces,
    }
    if domains:
        payload["domains"] = {
            domain: _domain_rollup(traces, domain) for domain in domains
        }
    return payload


def _domain_rollup(traces: List[Dict[str, Any]],
                   domain: Any) -> Dict[str, Any]:
    members = [entry for entry in traces if entry["domain"] == domain]
    total = math.fsum(entry["total_s"] for entry in members)
    layer_totals: Dict[str, List[float]] = {}
    for entry in members:
        for layer, seconds in entry["layers"].items():
            layer_totals.setdefault(layer, []).append(seconds)
    return {
        "traces": [entry["trace"] for entry in members],
        "total_s": total,
        "layers": {layer: math.fsum(parts)
                   for layer, parts in sorted(layer_totals.items())},
    }


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
_BAR_WIDTH = 24


def _waterfall_lines(layers: Dict[str, Any], total: float) -> List[str]:
    """Fixed-width per-layer rows, largest share first (ties by name)."""
    rows = []
    for layer, info in layers.items():
        seconds = info["seconds"] if isinstance(info, dict) else info
        rows.append((layer, seconds))
    rows.sort(key=lambda row: (-row[1], row[0]))
    width = max([len(layer) for layer, _ in rows] + [5])
    lines = []
    for layer, seconds in rows:
        share = (seconds / total) if total else 0.0
        bar = "#" * max(1 if seconds > 0 else 0,
                        round(share * _BAR_WIDTH))
        lines.append(f"  {layer:<{width}}  {seconds:>12.6f} s  "
                     f"{share * 100:>5.1f}%  {bar}")
    lines.append(f"  {'total':<{width}}  {total:>12.6f} s  100.0%")
    return lines


def render_explain(payload: Dict[str, Any]) -> str:
    """The aggregated waterfall, per-trace tables, and critical path."""
    lines = [
        f"latency attribution — {payload['metric']} "
        f"p{payload['p']:g} ({len(payload['traces'])} exemplar trace(s), "
        f"{payload['count']} observations, "
        f"p{payload['p']:g} ≈ {payload['percentile_s']:.6f} s)",
        "",
        "aggregate waterfall",
        "-------------------",
    ]
    lines.extend(_waterfall_lines(payload["layers"], payload["total_s"]))
    for entry in payload["traces"]:
        where = f"node {entry['node']}"
        if entry.get("domain") is not None:
            where += f", domain {entry['domain']}"
        lines.append("")
        lines.append(f"trace {entry['trace']} — {entry['total_s']:.6f} s "
                     f"({where})")
        lines.extend(_waterfall_lines(entry["layers"], entry["total_s"]))
        lines.append("  critical path: "
                     + " > ".join(entry["critical_path"]))
    if "domains" in payload:
        lines.append("")
        lines.append("per-domain totals")
        lines.append("-----------------")
        for domain, rollup in payload["domains"].items():
            lines.append(f"  domain {domain}: {rollup['total_s']:.6f} s "
                         f"over trace(s) "
                         + ", ".join(str(t) for t in rollup["traces"]))
    return "\n".join(lines)


def render_trace(spans: SpanTracer, trace_id: int) -> Optional[str]:
    """Single-trace drilldown: attribution waterfall + span tree."""
    attribution = attribute_trace(spans, trace_id)
    if attribution is None:
        return None
    lines = [f"trace {trace_id} — {attribution.total_s:.6f} s "
             f"(anchor {attribution.anchor.category})"]
    lines.extend(_waterfall_lines(attribution.by_layer(),
                                  attribution.total_s))
    lines.append("  critical path: " + " > ".join(
        span.category for span in critical_path(spans, trace_id)))
    lines.append("")
    lines.append(spans.render(trace_id))
    return "\n".join(lines)
