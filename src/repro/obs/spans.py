"""Packet-lifecycle span tracing.

A *span* is one timed step of a datagram's journey — a CoAP request, a
network-layer send, one forwarding hop, one MAC job, one frame airtime —
linked to its parent by id.  All spans of one journey share a trace id,
so the whole path (app → CoAP → RPL forwarding hops → MAC
attempts/retransmissions → radio airtime and per-receiver outcomes)
reconstructs as a tree after the run.

A span's handle is its id: :meth:`SpanTracer.start` returns it, it is
threaded through the stack as the ``trace_ctx`` attribute of datagrams,
packets, and MAC frames, and every layer that sees one attaches its own
child spans to it.  Ids are allocated densely from per-tracer counters
in event-execution order, so a seeded run produces identical span ids
run over run.

A stored span is a row, not an object.  Its fixed-width fields (parent
id, node, start time, category index) are packed into one byte buffer;
its trace id, end time, data keys and data values sit in four lists,
so a child span, ``finish`` and ``annotate`` index them directly.  A
closed span's data is one tuple of values beside a key tuple interned
per shape: an instrumented run keeps no per-span object or dict, only
the data dict of each span still open.  Readers build :class:`Span`
records from the rows on demand.

Sampling keeps long instrumented runs cheap: ``sample_rate`` < 1.0
(default 1.0, so a plain ``SpanTracer()`` records everything) keeps a
deterministic, seed-derived fraction of *traces* — whole trees, never
torn ones.  The decision hashes ``(sample_seed, trace_id)``; wall-clock
and global RNG state are never consulted, so a seeded run samples the
same traces every time, and trace *ids* advance exactly as in an
unsampled run.  Roots of *pinned* categories (the ones dependability
gates and repro bundles grade) are recorded at any rate.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from struct import Struct
from typing import Any, Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

from repro.sim.mix import GOLDEN, mix64

#: A stored span's fixed-width fields: parent id (0: a root), node
#: (_NO_NODE: none), start, category index.
_ROW = Struct("<qqdi")
_ROW_SIZE = _ROW.size
_NO_NODE = -(1 << 63)
#: A stored span as one tuple: trace id, parent id, node, start, end,
#: category index, data keys (None while open), data values (a dict
#: while open).
Row = Tuple[int, int, int, float, Optional[float], int,
            Optional[Tuple[str, ...]], Any]


def check_sample_rate(rate: float,
                      name: str = "SpanTracer.sample_rate") -> None:
    """Refuse a sampling rate outside ``[0.0, 1.0]`` (NaN too), naming
    the field ``name`` it came from."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"{name} must be within [0.0, 1.0]: {rate!r}")


class Span(NamedTuple):
    """One stored span as a reader sees it; ``end`` is None while the
    step is open.

    Built on read from the tracer's rows: a record, not a handle.
    Its ``data`` is a fresh dict, so changing it changes nothing stored.
    """

    span_id: int
    trace_id: int
    parent_id: Optional[int]
    category: str
    node: Optional[int]
    start: float
    end: Optional[float]
    data: Dict[str, Any]

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start


@dataclass
class SpanNode:
    """One node of a reconstructed span tree."""

    span: Span
    children: List["SpanNode"] = field(default_factory=list)

    def walk(self) -> Iterator["SpanNode"]:
        """Every node of the subtree, preorder."""
        yield self
        for child in self.children:
            yield from child.walk()


class _StoredSpans(Mapping):
    """A tracer's stored spans by id, read-only; each lookup builds its
    :class:`Span`."""

    __slots__ = ("_tracer",)

    def __init__(self, tracer: "SpanTracer") -> None:
        self._tracer = tracer

    def __getitem__(self, span_id: int) -> Span:
        row = self._tracer._row(span_id)
        if row is None:
            raise KeyError(span_id)
        return self._tracer._span(span_id, row)

    def __contains__(self, span_id: object) -> bool:
        return isinstance(span_id, int) and self._tracer._row(span_id) is not None

    def __iter__(self) -> Iterator[int]:
        return (span_id for span_id, _ in self._tracer._rows_stored())

    def __len__(self) -> int:
        return len(self._tracer)


class SpanTracer:
    """Records spans and reconstructs per-trace trees.

    Parameters
    ----------
    sample_rate:
        Fraction of traces to keep, in ``[0.0, 1.0]``.  1.0 (default)
        records everything.  Sampling is per-*trace* — a kept trace
        stores every one of its spans, so reconstructed trees are
        always complete.
    sample_seed:
        Seed folded into the per-trace sampling hash.  Derive it from
        the run's master seed: same seed, same sampled traces, every
        run — never wall-clock, never global RNG.
    pinned_categories:
        Categories whose roots sampling never skips (exact category or
        its first dotted segment: ``"fault"`` pins ``"fault.crash"``).
        These are the records dependability gates and repro bundles
        grade; they are stored at any rate.

    Storage: row ``i`` is span id ``i + 1``.  Every span handed out
    stays stored for the tracer's life.
    """

    def __init__(
        self,
        sample_rate: float = 1.0,
        sample_seed: int = 0,
        pinned_categories: Iterable[str] = (),
    ) -> None:
        check_sample_rate(sample_rate)
        self._next_trace = 1
        self._next_span = 1
        self.sample_rate = sample_rate
        self.sample_seed = sample_seed
        self._pinned = frozenset(pinned_categories)
        #: Category names by index, and their indices.
        self._categories: List[str] = []
        self._category_index: Dict[str, int] = {}
        #: One key tuple per data shape.
        self._shapes: Dict[Tuple[str, ...], Tuple[str, ...]] = {}
        self._rows = bytearray()
        self._trace: List[int] = []
        self._end: List[Optional[float]] = []  # None: still open
        #: A closed span's data: its interned key tuple and its values.
        #: An open span's is the dict it was started with (key None):
        #: annotate and finish update it in place, finish packs it.
        self._keys: List[Optional[Tuple[str, ...]]] = []
        self._values: List[Any] = []
        #: Stored span ids by trace, built by the first read after a
        #: write that stored a span.
        self._grouped_at: Optional[int] = None
        self._groups: Dict[int, List[int]] = {}
        #: Traces skipped by sampling.
        self.sampled_out = 0

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    def _trace_sampled(self, trace_id: int) -> bool:
        """Deterministic keep/skip decision for one trace.

        Output ``trace_id`` of the splitmix64 stream ``sample_seed``
        names, scaled against the rate: stateless, seed-derived, and
        uniform enough that the kept fraction tracks ``sample_rate``.
        """
        if self.sample_rate >= 1.0:
            return True
        if self.sample_rate <= 0.0:
            return False
        h = mix64(mix64(self.sample_seed) + trace_id * GOLDEN)
        return (h % 1_000_000) < int(self.sample_rate * 1_000_000)

    def _is_pinned(self, category: str) -> bool:
        return (category in self._pinned
                or category.split(".", 1)[0] in self._pinned)

    def _category(self, category: str) -> int:
        index = self._category_index[category] = len(self._categories)
        self._categories.append(category)
        return index

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def trace_of(self, span: int) -> int:
        """The trace of span handle ``span``."""
        return self._trace[span - 1]

    def start(
        self,
        parent: Optional[int],
        category: str,
        node: Optional[int],
        t: float,
        **data: Any,
    ) -> Optional[int]:
        """Open a span and return its id.  ``parent=None`` starts a
        fresh trace.

        Under sampling, an unsampled new trace returns ``None`` — the
        same value every layer already treats as "no span tracing
        here", so the whole downstream lifecycle (hops, MAC jobs,
        airtime, per-receiver outcomes) skips span work entirely and
        an unsampled trace costs one integer hash, total.  Pinned
        categories bypass sampling: a ``fault.*`` or gate-graded root
        span is recorded at any rate.
        """
        if parent is None:
            trace_id = self._next_trace
            self._next_trace += 1
            if not self._trace_sampled(trace_id) and not self._is_pinned(category):
                self.sampled_out += 1
                return None
            parent = 0
        else:
            trace_id = self._trace[parent - 1]
        # The store, written out here and in event() rather than called:
        # it runs once per span, the hottest path of an observed run.
        cat = self._category_index.get(category)
        if cat is None:
            cat = self._category(category)
        self._rows += _ROW.pack(parent, _NO_NODE if node is None else node,
                                t, cat)
        self._trace.append(trace_id)
        self._end.append(None)
        self._keys.append(None)
        self._values.append(data)
        span_id = self._next_span
        self._next_span = span_id + 1
        return span_id

    def finish(self, span: Optional[int], t: float, **data: Any) -> None:
        """Close a span (idempotent: the first end time wins).

        ``span=None`` — an unsampled trace's handle — is a no-op, so
        callers can thread :meth:`start` results through without
        re-checking sampling decisions.  So is an id never handed out.
        """
        if span is None or not 0 < span < self._next_span:
            return
        i = span - 1
        end = self._end
        if end[i] is None:
            end[i] = t
            values = self._values
            opened = values[i]
            if data:
                opened.update(data)
            keys = tuple(opened)
            self._keys[i] = self._shapes.setdefault(keys, keys)
            values[i] = tuple(opened.values())
        else:
            self._append(i, data)

    def annotate(self, span: Optional[int], **data: Any) -> None:
        """Attach data to an open span *without* closing it.

        Mid-span waypoints (e.g. the MAC job's ``service_start``) let
        the latency attributor split one span's interval into finer
        layers than start/end alone allow.  Same ``span=None`` no-op
        contract as :meth:`finish`.
        """
        if span is None or not data or not 0 < span < self._next_span:
            return
        i = span - 1
        if self._end[i] is None:
            self._values[i].update(data)
        else:
            self._append(i, data)

    def _append(self, i: int, data: Dict[str, Any]) -> None:
        """Append ``data`` to the closed row ``i``, repeats included:
        the dict a reader builds from it keeps each key where it first
        came and the value it got last, as ``dict.update`` would."""
        if data:
            keys = self._keys[i] + tuple(data)
            self._keys[i] = self._shapes.setdefault(keys, keys)
            self._values[i] += tuple(data.values())

    def event(
        self,
        parent: Optional[int],
        category: str,
        node: Optional[int],
        t: float,
        **data: Any,
    ) -> Optional[int]:
        """A zero-duration child span (a point occurrence on the path).

        Stored closed in one row rather than via start()+finish().
        ``parent=None`` (unsampled trace) records nothing.
        """
        if parent is None:
            return None
        trace_id = self._trace[parent - 1]
        # The store, as in start(), of a span closed at once.
        cat = self._category_index.get(category)
        if cat is None:
            cat = self._category(category)
        self._rows += _ROW.pack(parent, _NO_NODE if node is None else node,
                                t, cat)
        self._trace.append(trace_id)
        self._end.append(t)
        keys = tuple(data)
        self._keys.append(self._shapes.setdefault(keys, keys))
        self._values.append(tuple(data.values()))
        span_id = self._next_span
        self._next_span = span_id + 1
        return span_id

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def _row(self, span: int) -> Optional[Row]:
        """A stored span's row; None if it was never recorded."""
        i = span - 1
        if not 0 <= i < len(self._end):
            return None
        parent, node, start, cat = _ROW.unpack_from(self._rows, i * _ROW_SIZE)
        return (self._trace[i], parent, node, start, self._end[i], cat,
                self._keys[i], self._values[i])

    def _rows_stored(self) -> Iterator[Tuple[int, Row]]:
        """``(span id, row)`` of every stored span, in recording order."""
        for i, (parent, node, start, cat) in enumerate(
                _ROW.iter_unpack(self._rows)):
            yield i + 1, (self._trace[i], parent, node, start, self._end[i],
                          cat, self._keys[i], self._values[i])

    def _span(self, span_id: int, row: Row) -> Span:
        trace_id, parent, node, start, end, cat, keys, values = row
        return Span(span_id, trace_id, parent or None, self._categories[cat],
                    None if node == _NO_NODE else node, start, end,
                    dict(values) if keys is None else dict(zip(keys, values)))

    def _by_trace(self) -> Dict[int, List[int]]:
        """Stored span ids grouped by trace, traces ascending: one pass
        over the rows, repeated only after a store."""
        stamp = self._next_span
        if self._grouped_at != stamp:
            groups: Dict[int, List[int]] = {}
            for span_id, row in self._rows_stored():
                groups.setdefault(row[0], []).append(span_id)
            self._groups = dict(sorted(groups.items()))
            self._grouped_at = stamp
        return self._groups

    @property
    def spans(self) -> Mapping:
        """Stored spans by id, in recording order (read-only)."""
        return _StoredSpans(self)

    def trace_ids(self) -> List[int]:
        """Trace ids with at least one span still stored."""
        return list(self._by_trace())

    def spans_for(self, trace_id: int) -> List[Span]:
        """Stored spans of one trace in recording (event-execution)
        order."""
        return [self._span(span_id, self._row(span_id))
                for span_id in self._by_trace().get(trace_id, ())]

    def tree(self, trace_id: int) -> Optional[SpanNode]:
        """Rebuild one trace's span tree; None for unknown traces.

        Children sort by ``(start, span_id)``.  A trace's first span is
        its root, and every later span's parent is stored in it.
        """
        spans = self.spans_for(trace_id)
        if not spans:
            return None
        nodes = {span.span_id: SpanNode(span) for span in spans}
        for span in spans[1:]:
            nodes[span.parent_id].children.append(nodes[span.span_id])
        for node in nodes.values():
            node.children.sort(key=lambda n: (n.span.start, n.span.span_id))
        return nodes[spans[0].span_id]

    def traces_overlapping(self, since: float, until: float) -> List[int]:
        """Trace ids with at least one span inside ``[since, until]``."""
        hits = set()
        for _, (trace_id, _, _, start, end, *_) in self._rows_stored():
            if (start if end is None else end) >= since and start <= until:
                hits.add(trace_id)
        return sorted(hits)

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def render(self, trace_id: int) -> str:
        """Indented one-line-per-span rendering of a trace tree."""
        root = self.tree(trace_id)
        if root is None:
            return f"trace {trace_id}: <no spans>"
        lines = [f"trace {trace_id}:"]

        def visit(node: SpanNode, depth: int) -> None:
            span = node.span
            where = f" node={span.node}" if span.node is not None else ""
            extras = " ".join(f"{k}={v!r}" for k, v in sorted(span.data.items()))
            open_mark = "" if span.end is not None else " [open]"
            lines.append(
                f"  {'  ' * depth}{span.category}{where} "
                f"t={span.start:.4f}+{span.duration:.4f}s"
                f"{open_mark}{(' ' + extras) if extras else ''}"
            )
            for child in node.children:
                visit(child, depth + 1)

        visit(root, 0)
        return "\n".join(lines)

    def __len__(self) -> int:
        return self._next_span - 1
