"""SpanTracer: recording, tree reconstruction, rendering."""

from repro.obs.spans import SpanTracer


class TestRecording:
    def test_root_span_starts_a_fresh_trace(self):
        tracer = SpanTracer()
        a = tracer.start(None, "coap.request", node=0, t=1.0)
        b = tracer.start(None, "coap.request", node=0, t=2.0)
        assert tracer.trace_of(a) != tracer.trace_of(b)
        assert tracer.trace_ids() == [tracer.trace_of(a), tracer.trace_of(b)]

    def test_children_inherit_the_trace(self):
        tracer = SpanTracer()
        root = tracer.start(None, "root", node=0, t=0.0)
        child = tracer.start(root, "child", node=1, t=0.5)
        assert tracer.trace_of(child) == tracer.trace_of(root)
        assert tracer.spans[child].parent_id == root

    def test_finish_is_idempotent_first_end_wins(self):
        tracer = SpanTracer()
        ctx = tracer.start(None, "x", node=0, t=0.0)
        tracer.finish(ctx, 1.0, ok=True)
        tracer.finish(ctx, 5.0, ok=False)
        span = tracer.spans[ctx]
        assert span.end == 1.0
        assert span.data["ok"] is False  # data still updates
        assert span.duration == 1.0

    def test_finish_unknown_span_is_a_noop(self):
        tracer = SpanTracer()
        ctx = tracer.start(None, "x", node=0, t=0.0)
        stored = dict(tracer.spans)
        for unknown in (0, -1, ctx + 1, ctx + 10_000):
            tracer.finish(unknown, 1.0, ok=True)  # must not raise
            tracer.annotate(unknown, ok=True)
        assert tracer.spans == stored

    def test_every_span_handed_out_stays_stored(self):
        tracer = SpanTracer()
        first = tracer.start(None, "coap.request", node=0, t=0.0)
        for i in range(5000):
            root = tracer.start(None, "radio.airtime", node=1, t=float(i))
            tracer.finish(tracer.event(root, "net.send", node=1, t=i + 0.5),
                          i + 1.0)
        assert len(tracer) == 10_001
        assert tracer.spans[first].category == "coap.request"
        assert tracer.trace_ids()[0] == tracer.trace_of(first)

    def test_event_is_a_closed_zero_duration_child(self):
        tracer = SpanTracer()
        root = tracer.start(None, "root", node=0, t=0.0)
        ctx = tracer.event(root, "radio.rx", node=2, t=0.75, rssi=-70.0)
        span = tracer.spans[ctx]
        assert span.start == span.end == 0.75
        assert span.parent_id == root

    def test_ids_are_deterministic_in_recording_order(self):
        def build() -> list:
            tracer = SpanTracer()
            root = tracer.start(None, "r", node=0, t=0.0)
            tracer.start(root, "a", node=1, t=0.1)
            tracer.start(root, "b", node=2, t=0.2)
            return [(s.span_id, s.trace_id, s.category)
                    for s in tracer.spans.values()]

        assert build() == build()


class TestTrees:
    def _journey(self, tracer: SpanTracer):
        root = tracer.start(None, "coap.request", node=0, t=0.0)
        net = tracer.start(root, "net.datagram", node=0, t=0.0)
        hop = tracer.start(net, "net.hop", node=0, t=0.01)
        mac = tracer.start(hop, "mac.job", node=0, t=0.01)
        air = tracer.start(mac, "radio.airtime", node=0, t=0.02)
        tracer.event(air, "radio.rx", node=1, t=0.03)
        for ctx, t in ((air, 0.03), (mac, 0.04), (hop, 0.04), (net, 0.05),
                       (root, 0.06)):
            tracer.finish(ctx, t)
        return root

    def test_tree_reconstructs_the_layered_journey(self):
        tracer = SpanTracer()
        root = self._journey(tracer)
        tree = tracer.tree(tracer.trace_of(root))
        assert tree.span.category == "coap.request"
        # A chain: every span has at most one child, six levels deep.
        assert all(len(node.children) <= 1 for node in tree.walk())
        assert [node.span.category for node in tree.walk()] == [
            "coap.request", "net.datagram", "net.hop", "mac.job",
            "radio.airtime", "radio.rx",
        ]

    def test_children_sort_by_start_then_span_id(self):
        tracer = SpanTracer()
        root = tracer.start(None, "root", node=0, t=0.0)
        late = tracer.start(root, "late", node=0, t=2.0)
        early = tracer.start(root, "early", node=0, t=1.0)
        tree = tracer.tree(tracer.trace_of(root))
        assert [n.span.category for n in tree.children] == ["early", "late"]
        assert late != early

    def test_unknown_trace_returns_none(self):
        assert SpanTracer().tree(99) is None

    def test_traces_overlapping_window(self):
        tracer = SpanTracer()
        a = tracer.start(None, "a", node=0, t=0.0)
        tracer.finish(a, 1.0)
        b = tracer.start(None, "b", node=0, t=5.0)
        tracer.finish(b, 6.0)
        assert tracer.traces_overlapping(4.0, 10.0) == [tracer.trace_of(b)]
        assert tracer.traces_overlapping(0.5, 5.5) == [tracer.trace_of(a),
                                                       tracer.trace_of(b)]

    def test_render_indents_by_depth_and_marks_open_spans(self):
        tracer = SpanTracer()
        root = self._journey(tracer)
        open_ctx = tracer.start(root, "net.hop", node=0, t=0.05)
        text = tracer.render(tracer.trace_of(root))
        lines = text.splitlines()
        assert lines[0] == f"trace {tracer.trace_of(root)}:"
        assert lines[1].startswith("  coap.request")
        assert lines[2].startswith("    net.datagram")
        assert any("[open]" in line for line in lines)
        assert len(tracer.spans) == len(lines) - 1
        assert tracer.trace_of(open_ctx) == tracer.trace_of(root)
