"""SpanTracer storage: a stored span is a row, and the ring bounds rows.

- Retained bytes per stored span stay far below what a ``Span`` object
  with its own data dict cost (≈ 400 B).
- The ``max_spans`` ring keeps memory bounded: rows behind its cursor
  leave the buffer in chunks; a dropped span keeps only its trace id.
- The storage semantics — ids, traces, eviction order, pinned
  categories, ``dict.update`` data with its key order, writes to
  evicted spans changing nothing — match a plain one-dict-per-span
  reference model on any sequence of calls.
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

    def test_ring_memory_stays_bounded(self):
        # 100 000 spans through a 1 000-span ring, one in a thousand
        # pinned: the ring keeps every pinned one and drops the evicted
        # rows from the buffer, so what stays is the live rows (at most
        # twice the bound between drops), the pinned rows and 8 B of
        # trace id per dropped span.
        spans = 100_000

        def build():
            tracer = SpanTracer(max_spans=1000, pinned_categories=("fault",))
            for k in range(spans):
                category = "fault.crash" if k % 1000 == 0 else "radio.airtime"
                parent = None if k % 2 == 0 else tracer.start(
                    None, "net.send", node=1, t=float(k))
                tracer.finish(tracer.start(parent, category, node=2,
                                           t=float(k), size=40), k + 0.5)
            return tracer

        tracer, retained = _retained(build)
        spans_made = tracer._next_span - 1
        assert retained < (2 * 1000 * MAX_BYTES_PER_SPAN + spans_made * 8 * 1.25
                           + 100 * 2 * MAX_BYTES_PER_SPAN)
        assert len(tracer) == 1000
        pinned = [s for s in tracer.spans.values()
                  if s.category == "fault.crash"]
        assert len(pinned) == 100
        assert tracer.evicted == spans_made - 1000


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
    every span's trace remembered, a cursor that evicts the oldest
    non-pinned span one at a time."""

    def __init__(self, max_spans, pinned):
        self.max_spans = max_spans
        self.pinned = pinned
        self.rows = {}
        self.trace = {}
        self.next_trace = self.next_span = self.cursor = 1
        self.evicted = 0

    def _is_pinned(self, category):
        return (category in self.pinned
                or category.split(".", 1)[0] in self.pinned)

    def _store(self, trace_id, parent, category, node, start, end, data):
        span = self.next_span
        self.next_span += 1
        self.trace[span] = trace_id
        self.rows[span] = [trace_id, parent, category, node, start, end,
                           dict(data)]
        while (self.max_spans is not None and len(self.rows) > self.max_spans
               and self.cursor < self.next_span):
            victim = self.cursor
            self.cursor += 1
            if victim in self.rows and not self._is_pinned(self.rows[victim][2]):
                del self.rows[victim]
                self.evicted += 1
        return span

    def start(self, parent, category, node, t, **data):
        if parent is None:
            trace_id = self.next_trace
            self.next_trace += 1
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
    @given(ops=_ops, max_spans=st.none() | st.integers(1, 12),
           pinned=st.sampled_from(((), ("fault",), ("fault", "rnfd.verdict"))))
    def test_any_call_sequence_stores_what_the_reference_stores(
            self, ops, max_spans, pinned):
        tracer = SpanTracer(max_spans=max_spans, pinned_categories=pinned)
        reference = ReferenceTracer(max_spans, frozenset(pinned))
        handles = []
        for step, (kind, pick, category, node, data) in enumerate(ops):
            t = float(step)
            if kind == "root" or not handles:
                got = tracer.start(None, category, node, t, **data)
                want = reference.start(None, category, node, t, **data)
                assert got == want
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
                tracer.annotate(-pick, **data)
            else:
                tracer.annotate(handle, **data)
                reference.annotate(handle, **data)
        assert _stored(tracer) == reference.stored()
        assert len(tracer) == len(reference.rows)
        assert tracer.evicted == reference.evicted
        assert tracer.trace_ids() == sorted(
            {row[0] for row in reference.rows.values()})
        for handle in handles:
            assert tracer.trace_of(handle) == reference.trace[handle]
