"""SpanTracer storage: a stored span is a row.

- Retained bytes per stored span stay far below what a ``Span`` object
  with its own data dict cost (≈ 400 B).
- The storage semantics — ids, traces, sampling with pinned categories,
  ``dict.update`` data with its key order, writes to ids never handed
  out changing nothing — match a plain one-dict-per-span reference
  model on any sequence of calls.
"""

import gc
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.spans import SpanTracer

#: Retained bytes per stored span that the row store must stay under: a
#: ``Span`` object with a data dict cost ≈ 400 B, the rows ≈ 140 B.
MAX_BYTES_PER_SPAN = 200


def _retained(build):
    """What ``build()`` made, and the bytes it still holds."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        made = build()
        gc.collect()
        return made, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


class TestBytesPerSpan:
    def test_airtime_shaped_spans_are_compact(self):
        spans = 10_000

        def build():
            tracer = SpanTracer()
            root = tracer.start(None, "net.send", node=1, t=0.0)
            for k in range(spans):
                t = k * 1e-3
                tracer.finish(tracer.start(root, "radio.airtime", node=1,
                                           t=t, size=40), t + 5e-4)
            return tracer

        _, retained = _retained(build)
        assert retained / spans < MAX_BYTES_PER_SPAN


class TestDataUpdates:
    def test_annotate_then_finish_keeps_dict_update_order(self):
        tracer = SpanTracer()
        job = tracer.start(None, "mac.job", node=1, t=0.0, dest=4, seq=1)
        tracer.annotate(job, service_start=0.5)
        tracer.finish(job, 1.0, ok=True, dest=5)
        expected = {"dest": 5, "seq": 1, "service_start": 0.5, "ok": True}
        data = tracer.spans[job].data
        assert data == expected and list(data) == list(expected)
        # A closed span updates the same way, and keeps its end time.
        tracer.annotate(job, seq=2, late=True)
        tracer.finish(job, 9.0, ok=False)
        expected.update(seq=2, late=True, ok=False)
        span = tracer.spans[job]
        assert span.data == expected and list(span.data) == list(expected)
        assert span.end == 1.0

    def test_a_read_span_is_a_copy(self):
        tracer = SpanTracer()
        ctx = tracer.start(None, "x", node=0, t=0.0, a=1)
        tracer.spans[ctx].data["a"] = 99
        assert tracer.spans[ctx].data == {"a": 1}
        tracer.finish(ctx, 1.0)
        tracer.spans[ctx].data["a"] = 99
        assert tracer.spans[ctx].data == {"a": 1}


# ----------------------------------------------------------------------
# the reference model
# ----------------------------------------------------------------------
class ReferenceTracer:
    """The storage semantics written plainly: one dict per stored span,
    every span's trace remembered; at rate 0.0 a root is stored only
    when its category is pinned, at rate 1.0 always."""

    def __init__(self, rate, pinned):
        self.rate = rate
        self.pinned = pinned
        self.rows = {}
        self.trace = {}
        self.next_trace = self.next_span = 1
        self.sampled_out = 0

    def _is_pinned(self, category):
        return (category in self.pinned
                or category.split(".", 1)[0] in self.pinned)

    def _store(self, trace_id, parent, category, node, start, end, data):
        span = self.next_span
        self.next_span += 1
        self.trace[span] = trace_id
        self.rows[span] = [trace_id, parent, category, node, start, end,
                           dict(data)]
        return span

    def start(self, parent, category, node, t, **data):
        if parent is None:
            trace_id = self.next_trace
            self.next_trace += 1
            if self.rate == 0.0 and not self._is_pinned(category):
                self.sampled_out += 1
                return None
            return self._store(trace_id, None, category, node, t, None, data)
        return self._store(self.trace[parent], parent, category, node, t,
                           None, data)

    def event(self, parent, category, node, t, **data):
        return self._store(self.trace[parent], parent, category, node, t, t,
                           data)

    def finish(self, span, t, **data):
        row = self.rows.get(span)
        if row is not None:
            if row[5] is None:
                row[5] = t
            row[6].update(data)

    def annotate(self, span, **data):
        row = self.rows.get(span)
        if row is not None:
            row[6].update(data)

    def stored(self):
        return {span: (row[0], row[1], row[2], row[3], row[4], row[5],
                       list(row[6].items()))
                for span, row in self.rows.items()}


_CATEGORIES = ("radio.airtime", "mac.job", "fault.crash", "rnfd.verdict")
_data = st.dictionaries(st.sampled_from("abc"), st.integers(0, 3), max_size=3)
_ops = st.lists(st.tuples(
    st.sampled_from(("root", "start", "event", "finish", "annotate",
                     "stray")),
    st.integers(0, 1_000), st.sampled_from(_CATEGORIES),
    st.sampled_from((None, 1, 2)), _data), min_size=1, max_size=120)


def _stored(tracer):
    return {span_id: (span.trace_id, span.parent_id, span.category,
                      span.node, span.start, span.end, list(span.data.items()))
            for span_id, span in tracer.spans.items()}


class TestAgainstTheReference:
    @settings(max_examples=150, deadline=None)
    @given(ops=_ops, rate=st.sampled_from((0.0, 1.0)),
           pinned=st.sampled_from(((), ("fault",), ("fault", "rnfd.verdict"))))
    def test_any_call_sequence_stores_what_the_reference_stores(
            self, ops, rate, pinned):
        tracer = SpanTracer(sample_rate=rate, pinned_categories=pinned)
        reference = ReferenceTracer(rate, frozenset(pinned))
        handles = []
        for step, (kind, pick, category, node, data) in enumerate(ops):
            t = float(step)
            if kind == "root" or not handles:
                got = tracer.start(None, category, node, t, **data)
                want = reference.start(None, category, node, t, **data)
                assert got == want
                if got is not None:  # a root sampling skipped
                    handles.append(got)
                continue
            handle = handles[pick % len(handles)]
            if kind in ("start", "event"):
                got = getattr(tracer, kind)(handle, category, node, t,
                                            **data)
                want = getattr(reference, kind)(handle, category, node, t,
                                                **data)
                assert got == want
                assert tracer.trace_of(got) == reference.trace[want]
                handles.append(got)
            elif kind == "finish":
                tracer.finish(handle, t, **data)
                reference.finish(handle, t, **data)
            elif kind == "stray":  # an id this tracer never handed out
                tracer.finish(handle + 10_000, t, **data)
                tracer.finish(-pick, t, **data)
                tracer.annotate(-pick, **data)
            else:
                tracer.annotate(handle, **data)
                reference.annotate(handle, **data)
        assert _stored(tracer) == reference.stored()
        assert len(tracer) == len(reference.rows)
        assert tracer.sampled_out == reference.sampled_out
        assert tracer.trace_ids() == sorted(
            {row[0] for row in reference.rows.values()})
        for handle in handles:
            assert tracer.trace_of(handle) == reference.trace[handle]
