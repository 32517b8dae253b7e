"""The latency attributor: exact partitions, taxonomy, and the diff.

These tests drive :mod:`repro.obs.analysis` over hand-built span trees
whose every boundary is known, so each taxonomy rule is pinned exactly:
the ``mac.queue``/``mac.access`` split at the ``service_start``
waypoint, phase-dependent own-time layers, overlap resolution in favor
of the earliest sibling, and zero-duration events producing nothing.
End-to-end behaviour over a real instrumented run lives in
``test_explain_cli.py``; fuzzed invariants in
``test_analysis_properties.py``.
"""

import json
import math

from repro.obs.analysis import (
    EXPLAIN_FORMAT,
    Attribution,
    Segment,
    attribute_trace,
    critical_path,
    render_explain,
)
from repro.obs.diff import diff_main
from repro.obs.spans import SpanTracer


def _delivery_trace(tracer):
    """One two-hop delivery with a retransmission, boundaries exact.

    coap.request 0..10
      net.datagram 0..10 (latency=10)
        net.hop 1..5
          mac.job 1..5 (service_start=2)
            radio.airtime 3..4
        net.hop 6..9
          mac.job 6..9
            radio.airtime 6..7   (collided: retry gap follows)
            radio.airtime 8..9
    """
    root = tracer.start(None, "coap.request", node=1, t=0.0)
    dgram = tracer.start(root, "net.datagram", node=1, t=0.0)
    hop1 = tracer.start(dgram, "net.hop", node=1, t=1.0)
    job1 = tracer.start(hop1, "mac.job", node=1, t=1.0)
    tracer.annotate(job1, service_start=2.0)
    air1 = tracer.start(job1, "radio.airtime", node=1, t=3.0)
    tracer.finish(air1, 4.0)
    tracer.finish(job1, 5.0)
    tracer.finish(hop1, 5.0)
    hop2 = tracer.start(dgram, "net.hop", node=4, t=6.0)
    job2 = tracer.start(hop2, "mac.job", node=4, t=6.0)
    air2a = tracer.start(job2, "radio.airtime", node=4, t=6.0)
    tracer.finish(air2a, 7.0)
    air2b = tracer.start(job2, "radio.airtime", node=4, t=8.0)
    tracer.finish(air2b, 9.0)
    tracer.finish(job2, 9.0)
    tracer.finish(hop2, 9.0)
    tracer.finish(dgram, 10.0, latency=10.0)
    tracer.finish(root, 10.0)
    return tracer.trace_of(root)


class TestAttribution:
    def test_segments_partition_the_anchor_exactly(self):
        tracer = SpanTracer()
        attribution = attribute_trace(tracer, _delivery_trace(tracer))
        assert attribution.verify_partition()
        segs = attribution.segments
        assert segs[0].start == 0.0 and segs[-1].end == 10.0
        assert all(a.end == b.start for a, b in zip(segs, segs[1:]))

    def test_layer_charges_match_the_construction(self):
        tracer = SpanTracer()
        attribution = attribute_trace(tracer, _delivery_trace(tracer))
        layers = attribution.by_layer()
        # Known boundaries, known charges: queue 1..2, access 2..3,
        # airtime 3..4 + 6..7 + 8..9, ack wait 4..5 (job1 post),
        # retry gap 7..8 (job2 mid), route 0..1 (datagram pre),
        # retry 5..6 (datagram mid), deliver 9..10 (datagram post).
        assert layers == {
            "airtime": 3.0,
            "mac.access": 1.0,
            "mac.ack_wait": 1.0,
            "mac.queue": 1.0,
            "mac.retry_gap": 1.0,
            "net.deliver": 1.0,
            "net.retry": 1.0,
            "net.route": 1.0,
        }
        assert math.fsum(layers.values()) == attribution.total_s == 10.0

    def test_anchor_selection_by_category_and_value(self):
        tracer = SpanTracer()
        trace_id = _delivery_trace(tracer)
        attribution = attribute_trace(tracer, trace_id,
                                      anchor_category="net.datagram",
                                      anchor_value=10.0)
        assert attribution.anchor.category == "net.datagram"
        assert attribution.total_s == 10.0

    def test_missing_trace_returns_none(self):
        assert attribute_trace(SpanTracer(), 999) is None

    def test_unknown_category_degrades_to_other(self):
        tracer = SpanTracer()
        ctx = tracer.start(None, "novel.thing", node=1, t=0.0)
        tracer.finish(ctx, 2.0)
        attribution = attribute_trace(tracer, tracer.trace_of(ctx))
        assert attribution.by_layer() == {"other.novel": 2.0}
        assert attribution.verify_partition()

    def test_zero_duration_events_produce_no_segments(self):
        tracer = SpanTracer()
        root = tracer.start(None, "radio.airtime", node=1, t=0.0)
        tracer.event(root, "radio.rx", node=2, t=0.5)
        tracer.event(root, "radio.collision", node=3, t=0.5)
        tracer.finish(root, 1.0)
        attribution = attribute_trace(tracer, tracer.trace_of(root))
        # The whole window stays charged to the airtime span — events
        # neither produce segments nor flip its phase away from "pre".
        assert attribution.by_layer() == {"airtime": 1.0}
        assert attribution.verify_partition()

    def test_overlapping_siblings_charge_the_earliest(self):
        tracer = SpanTracer()
        dgram = tracer.start(None, "net.datagram", node=1, t=0.0)
        hop1 = tracer.start(dgram, "net.hop", node=1, t=0.0)
        hop2 = tracer.start(dgram, "net.hop", node=2, t=3.0)  # pipelined
        tracer.finish(hop1, 4.0)
        tracer.finish(hop2, 6.0)
        tracer.finish(dgram, 6.0)
        attribution = attribute_trace(tracer, tracer.trace_of(dgram))
        assert attribution.verify_partition()
        hop_segments = [seg for seg in attribution.segments
                        if seg.layer.startswith("hop.")]
        # hop1 owns [0, 4]; hop2 only its un-overlapped [4, 6].
        assert [(seg.start, seg.end, seg.node) for seg in hop_segments] \
            == [(0.0, 4.0, 1), (4.0, 6.0, 2)]

    def test_queue_only_job_has_no_access_segment(self):
        tracer = SpanTracer()
        job = tracer.start(None, "mac.job", node=1, t=0.0)
        tracer.annotate(job, service_start=5.0)  # never got the channel
        tracer.finish(job, 3.0)
        attribution = attribute_trace(tracer, tracer.trace_of(job))
        assert attribution.by_layer() == {"mac.queue": 3.0}


class TestCriticalPath:
    def test_path_is_a_root_to_leaf_chain(self):
        tracer = SpanTracer()
        trace_id = _delivery_trace(tracer)
        path = critical_path(tracer, trace_id)
        assert [span.category for span in path] == [
            "coap.request", "net.datagram", "net.hop", "mac.job",
            "radio.airtime"]
        for parent, child in zip(path, path[1:]):
            assert child.parent_id == parent.span_id

    def test_path_follows_the_latest_ending_child(self):
        tracer = SpanTracer()
        trace_id = _delivery_trace(tracer)
        path = critical_path(tracer, trace_id)
        # The second hop (ends t=9) outlasts the first (t=5), and its
        # retransmission (ends t=9) outlasts the collided attempt.
        assert path[2].node == 4
        assert path[-1].start == 8.0

    def test_missing_trace_yields_empty_path(self):
        assert critical_path(SpanTracer(), 999) == []


def _payload(layers, total):
    shares = {
        layer: {"seconds": seconds,
                "share": seconds / total if total else 0.0}
        for layer, seconds in layers.items()
    }
    return {"format": EXPLAIN_FORMAT, "metric": "net.latency_s", "p": 95.0,
            "count": 10, "percentile_s": total, "total_s": total,
            "layers": shares, "traces": []}


class TestDiffExplain:
    """Two ``repro.explain/1`` payloads through ``repro diff``: a layer
    is a series, so the metrics diff's verdicts are the attribution
    diff's."""

    def _diff(self, tmp_path, capsys, a, b, *flags):
        paths = []
        for name, payload in (("a.json", a), ("b.json", b)):
            path = tmp_path / name
            path.write_text(json.dumps(payload))
            paths.append(str(path))
        code = diff_main(paths + list(flags))
        return capsys.readouterr().out, code

    def test_identical_payloads_pass_exact_gate(self, tmp_path, capsys):
        a = _payload({"airtime": 1.0, "mac.queue": 0.5}, 1.5)
        text, code = self._diff(tmp_path, capsys, a, a, "--fail-on", "0.0")
        assert code == 0
        assert "no differences" in text
        assert "largest share shift" not in text

    def test_moved_layer_fails_and_is_named(self, tmp_path, capsys):
        a = _payload({"airtime": 1.0, "mac.queue": 0.5}, 1.5)
        b = _payload({"airtime": 1.0, "mac.queue": 1.0}, 2.0)
        text, code = self._diff(tmp_path, capsys, a, b, "--fail-on", "0.0")
        assert code == 1
        assert "! explain.seconds{layer=mac.queue}" in text
        assert "largest share shift: mac.queue (+16.7pp)" in text

    def test_new_and_vanished_layers_fail(self, tmp_path, capsys):
        a = _payload({"airtime": 1.0}, 1.0)
        b = _payload({"airtime": 1.0, "frag": 0.1}, 1.1)
        text, code = self._diff(tmp_path, capsys, a, b, "--fail-on", "0.0")
        assert code == 1
        assert "- -> 0.1  (new/gone)" in text
        # One-sided series fail under any threshold.
        _text, code = self._diff(tmp_path, capsys, b, a, "--fail-on", "0.5")
        assert code == 1

    def test_fail_on_none_reports_without_gating(self, tmp_path, capsys):
        a = _payload({"airtime": 1.0}, 1.0)
        b = _payload({"airtime": 9.0}, 9.0)
        text, code = self._diff(tmp_path, capsys, a, b)
        assert code == 0
        assert "explain.total_s" in text

    def test_tolerance_admits_small_moves(self, tmp_path, capsys):
        a = _payload({"airtime": 1.00}, 1.00)
        b = _payload({"airtime": 1.01}, 1.01)
        _text, code = self._diff(tmp_path, capsys, a, b, "--fail-on", "0.05")
        assert code == 0

    def test_non_explain_payload_is_rejected(self, tmp_path, capsys):
        text, code = self._diff(tmp_path, capsys, {"format": "bogus"},
                                _payload({}, 0.0), "--fail-on", "0.0")
        assert code == 2
        assert "error:" in text


class TestRendering:
    def test_render_includes_waterfall_and_critical_path(self):
        tracer = SpanTracer()
        trace_id = _delivery_trace(tracer)
        attribution = attribute_trace(tracer, trace_id)
        payload = _payload(attribution.by_layer(), attribution.total_s)
        payload["traces"] = [{
            "trace": trace_id, "value_s": 10.0, "total_s": 10.0,
            "node": 1,
            "layers": attribution.by_layer(),
            "critical_path": [span.category
                              for span in critical_path(tracer, trace_id)],
        }]
        text = render_explain(payload)
        assert "aggregate waterfall" in text
        assert "critical path: coap.request > net.datagram" in text
        assert "airtime" in text and "#" in text

    def test_segment_duration_property(self):
        seg = Segment(1.0, 3.5, "airtime", span_id=1, node=2)
        assert seg.duration == 2.5

    def test_attribution_total_of_open_anchor_is_zero(self):
        tracer = SpanTracer()
        ctx = tracer.start(None, "coap.request", node=1, t=5.0)
        attribution = attribute_trace(tracer, tracer.trace_of(ctx))
        assert attribution.total_s == 0.0
        assert attribution.segments == []
        assert attribution.verify_partition()

    def test_by_layer_on_empty_attribution(self):
        span = SpanTracer()
        ctx = span.start(None, "coap.request", node=1, t=0.0)
        span.finish(ctx, 0.0)
        attribution = Attribution(trace_id=span.trace_of(ctx),
                                  anchor=span.spans[ctx])
        assert attribution.by_layer() == {}
