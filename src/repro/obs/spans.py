"""Packet-lifecycle span tracing.

A *span* is one timed step of a datagram's journey — a CoAP request, a
network-layer send, one forwarding hop, one MAC job, one frame airtime —
linked to its parent by id.  All spans of one journey share a trace id,
so the whole path (app → CoAP → RPL forwarding hops → MAC
attempts/retransmissions → radio airtime and per-receiver outcomes)
reconstructs as a tree after the run.

A :class:`Span` is its own handle: :meth:`SpanTracer.start` returns it,
it is threaded through the stack as the ``trace_ctx`` attribute of
datagrams, packets, and MAC frames, and every layer that sees one
attaches its own child spans to it.  Ids are
allocated from per-tracer counters in event-execution order, so a seeded
run produces identical span ids run over run.

Two storage knobs keep long instrumented runs cheap (both default off,
so a plain ``SpanTracer()`` records everything, byte-identically to
every earlier release):

- **Sampling** (``sample_rate`` < 1.0) keeps a deterministic,
  seed-derived fraction of *traces* — whole trees, never torn ones.
  The decision hashes ``(sample_seed, trace_id)``; wall-clock and
  global RNG state are never consulted, so a seeded run samples the
  same traces every time, and trace *ids* advance exactly as in an
  unsampled run.
- **The ring buffer** (``max_spans``) bounds stored spans: once full,
  the oldest spans are evicted first — except *pinned* categories
  (the ones dependability gates and repro bundles grade), which are
  never dropped no matter how old.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.sim.mix import GOLDEN, mix64


class Span:
    """One recorded step, and the handle to it; ``end`` is None while
    the step is open.

    A plain ``__slots__`` class (not a dataclass): span construction is
    the single hottest allocation of an instrumented run, and skipping
    the per-instance ``__dict__`` keeps each record small and cheap.
    A span the ring buffer evicted stays a valid handle: finishing or
    annotating it changes nothing stored.
    """

    __slots__ = ("span_id", "trace_id", "parent_id", "category", "node",
                 "start", "end", "data")

    def __init__(
        self,
        span_id: int,
        trace_id: int,
        parent_id: Optional[int],
        category: str,
        node: Optional[int],
        start: float,
        end: Optional[float] = None,
        data: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.span_id = span_id
        self.trace_id = trace_id
        self.parent_id = parent_id
        self.category = category
        self.node = node
        self.start = start
        self.end = end
        self.data = data if data is not None else {}

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span(id={self.span_id}, trace={self.trace_id}, "
                f"parent={self.parent_id}, {self.category!r}, node={self.node}, "
                f"t={self.start}..{self.end}, data={self.data})")


@dataclass
class SpanNode:
    """One node of a reconstructed span tree."""

    span: Span
    children: List["SpanNode"] = field(default_factory=list)

    def depth(self) -> int:
        """Number of levels in this subtree (a leaf is depth 1)."""
        if not self.children:
            return 1
        return 1 + max(child.depth() for child in self.children)

    def categories(self) -> List[str]:
        """Every category in the subtree, preorder."""
        return [node.span.category for node in self.walk()]

    def walk(self) -> Iterator["SpanNode"]:
        """Every node of the subtree, preorder."""
        yield self
        for child in self.children:
            yield from child.walk()


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
    max_spans:
        Ring-buffer bound on *stored* spans; None (default) stores
        unboundedly.  When full, the oldest non-pinned spans are
        evicted first.
    pinned_categories:
        Categories the ring buffer must never evict (exact category or
        its first dotted segment: ``"fault"`` pins ``"fault.crash"``).
        These are the records dependability gates and repro bundles
        grade; they survive even if the buffer overruns its bound.
    """

    def __init__(
        self,
        sample_rate: float = 1.0,
        sample_seed: int = 0,
        max_spans: Optional[int] = None,
        pinned_categories: Iterable[str] = (),
    ) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError("sample_rate must be within [0.0, 1.0]")
        if max_spans is not None and max_spans < 1:
            raise ValueError("max_spans must be >= 1 (or None)")
        self.spans: Dict[int, Span] = {}
        self._by_trace: Dict[int, List[int]] = {}
        self._next_trace = 1
        self._next_span = 1
        self.sample_rate = sample_rate
        self.sample_seed = sample_seed
        self.max_spans = max_spans
        self._pinned = frozenset(pinned_categories)
        #: Oldest span id not yet considered for eviction.  Span ids are
        #: allocated monotonically, so a single forward cursor finds the
        #: eviction victim in amortized O(1).
        self._evict_cursor = 1
        #: Traces skipped by sampling / spans dropped by the ring.
        self.sampled_out = 0
        self.evicted = 0

    # ------------------------------------------------------------------
    # sampling + storage policy
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

    def _store(self, span: Span) -> Span:
        self.spans[span.span_id] = span
        by_trace = self._by_trace.get(span.trace_id)
        if by_trace is None:
            by_trace = self._by_trace[span.trace_id] = []
        by_trace.append(span.span_id)
        if self.max_spans is not None and len(self.spans) > self.max_spans:
            self._evict()
        return span

    def _evict(self) -> None:
        """Drop oldest non-pinned spans until back under the bound.

        Pinned spans are skipped (and, once passed, never revisited —
        they are immortal by policy, so the cursor owes them nothing).
        If only pinned spans remain the buffer is allowed to exceed its
        bound: gated categories outrank the memory cap.
        """
        while (len(self.spans) > self.max_spans
               and self._evict_cursor < self._next_span):
            sid = self._evict_cursor
            self._evict_cursor += 1
            span = self.spans.get(sid)
            if span is None or self._is_pinned(span.category):
                continue
            del self.spans[sid]
            self.evicted += 1

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def start(
        self,
        parent: Optional[Span],
        category: str,
        node: Optional[int],
        t: float,
        **data: Any,
    ) -> Optional[Span]:
        """Open a span and return it.  ``parent=None`` starts a fresh
        trace.

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
            parent_id = None
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        span_id = self._next_span
        self._next_span += 1
        return self._store(Span(span_id, trace_id, parent_id,
                                category, node, t, None, data))

    def finish(self, span: Optional[Span], t: float, **data: Any) -> None:
        """Close a span (idempotent: the first end time wins).

        ``span=None`` — an unsampled trace's handle — is a no-op, so
        callers can thread :meth:`start` results through without
        re-checking sampling decisions.
        """
        if span is None:
            return
        if span.end is None:
            span.end = t
        if data:
            span.data.update(data)

    def annotate(self, span: Optional[Span], **data: Any) -> None:
        """Attach data to an open span *without* closing it.

        Mid-span waypoints (e.g. the MAC job's ``service_start``) let
        the latency attributor split one span's interval into finer
        layers than start/end alone allow.  Same ``span=None`` no-op
        contract as :meth:`finish`.
        """
        if span is not None and data:
            span.data.update(data)

    def event(
        self,
        parent: Optional[Span],
        category: str,
        node: Optional[int],
        t: float,
        **data: Any,
    ) -> Optional[Span]:
        """A zero-duration child span (a point occurrence on the path).

        Built closed in one allocation rather than via start()+finish().
        ``parent=None`` (unsampled trace) records nothing.
        """
        if parent is None:
            return None
        span_id = self._next_span
        self._next_span += 1
        return self._store(Span(span_id, parent.trace_id, parent.span_id,
                                category, node, t, t, data))

    # ------------------------------------------------------------------
    # reconstruction
    # ------------------------------------------------------------------
    def trace_ids(self) -> List[int]:
        """Trace ids with at least one span still stored."""
        return sorted(
            trace_id for trace_id, span_ids in self._by_trace.items()
            if any(sid in self.spans for sid in span_ids)
        )

    def spans_for(self, trace_id: int) -> List[Span]:
        """Stored spans of one trace in recording (event-execution)
        order.  Spans the ring buffer evicted are simply absent."""
        return [self.spans[sid] for sid in self._by_trace.get(trace_id, [])
                if sid in self.spans]

    def tree(self, trace_id: int) -> Optional[SpanNode]:
        """Rebuild one trace's span tree; None for unknown traces.

        Children sort by ``(start, span_id)``; multiple roots (possible
        if a root span was never recorded) are grafted under the
        earliest one.
        """
        spans = self.spans_for(trace_id)
        if not spans:
            return None
        nodes = {span.span_id: SpanNode(span) for span in spans}
        roots: List[SpanNode] = []
        for span in spans:
            node = nodes[span.span_id]
            parent = nodes.get(span.parent_id) if span.parent_id else None
            if parent is None:
                roots.append(node)
            else:
                parent.children.append(node)
        for node in nodes.values():
            node.children.sort(key=lambda n: (n.span.start, n.span.span_id))
        root = roots[0]
        for orphan in roots[1:]:
            root.children.append(orphan)
        return root

    def traces_overlapping(self, since: float, until: float) -> List[int]:
        """Trace ids with at least one span inside ``[since, until]``."""
        hits = []
        for trace_id, span_ids in sorted(self._by_trace.items()):
            for sid in span_ids:
                span = self.spans.get(sid)
                if span is None:
                    continue
                end = span.end if span.end is not None else span.start
                if end >= since and span.start <= until:
                    hits.append(trace_id)
                    break
        return hits

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
        return len(self.spans)
