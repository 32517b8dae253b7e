"""Epoch-based in-network aggregation and its centralized baseline.

:class:`AggregationService` implements the TinyDB pattern over the RPL
tree: query dissemination by scoped flooding, per-epoch sampling, child
partials folded at each hop, one constant-size record per node per
epoch.  Depth-staggered send offsets make children transmit before their
parents within each epoch.

:class:`RawCollectionService` is the baseline the size-scalability
experiment (E2) and the funnel experiment (E4) compare against: every
node ships its raw reading to the root every epoch, so nodes near the
border router forward O(subtree) messages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.aggregation.operators import OPERATORS
from repro.aggregation.query import AggregationQuery
from repro.devices.node import DeviceNode
from repro.sim.kernel import LazyStream

#: The services' ports: aggregation, and the raw-collection baseline.
AGGREGATION_PORT = 9903
RAW_PORT = 9905


@dataclass(frozen=True)
class QueryAnnounce:
    """Query dissemination message (flooded link-locally)."""

    query: AggregationQuery
    SIZE_BYTES = AggregationQuery.SIZE_BYTES + 2

    @property
    def size_bytes(self) -> int:
        return self.SIZE_BYTES


@dataclass(frozen=True)
class PartialRecord:
    """One node's folded partial state for one epoch."""

    query_id: int
    epoch: int
    state: Any
    count: int
    state_bytes: int

    @property
    def size_bytes(self) -> int:
        return 8 + self.state_bytes


@dataclass(frozen=True)
class RawReading:
    """Baseline: one unaggregated sample shipped to the root."""

    field_name: str
    epoch: int
    value: float

    SIZE_BYTES = 10

    @property
    def size_bytes(self) -> int:
        return self.SIZE_BYTES


@dataclass
class EpochResult:
    """The root's answer for one epoch."""

    epoch: int
    value: float
    node_count: int
    finalized_at: float


class AggregationService(LazyStream):
    """TinyDB-style aggregation agent; attach one per device."""

    #: Assumed maximum tree depth for the send schedule.
    SCHEDULE_DEPTH = 12
    #: Fraction of the epoch reserved before the first send slot.
    EARLIEST_FRACTION = 0.25
    #: Root finalizes this far into the next epoch.
    GRACE_FRACTION = 0.1
    COUNTED = (("agg.partial", {}, "records_sent"),)

    def __init__(self, node: DeviceNode) -> None:
        self.node = node
        self.stack = node.stack
        self.sim = node.sim
        self.trace = self.stack.trace
        self.queries: Dict[int, AggregationQuery] = {}
        self._seen_queries: Set[int] = set()
        self._accumulators: Dict[Tuple[int, int], Tuple[Any, int]] = {}
        self.records_sent = 0
        self.bytes_sent = 0
        self.trace.add_reader(self, node.node_id, self.COUNTED)
        #: Root only.
        self.results: List[EpochResult] = []
        self.on_result: Optional[Callable[[EpochResult], None]] = None
        self._stream = f"agg.{node.node_id}"
        self.stack.bind(AGGREGATION_PORT, self._on_datagram)

    # ------------------------------------------------------------------
    # root API
    # ------------------------------------------------------------------
    def run_query(
        self,
        field_name: str,
        operator: str,
        epoch_s: float,
        lifetime_epochs: int = 0,
        on_result: Optional[Callable[[EpochResult], None]] = None,
    ) -> AggregationQuery:
        """Root: start a query; results arrive once per epoch."""
        if not self.node.is_root:
            raise RuntimeError("queries are issued by the root")
        query = AggregationQuery(
            self.sim.next_id("agg.query"), field_name, operator, epoch_s,
            start_time=self.sim.now, lifetime_epochs=lifetime_epochs,
        )
        self.on_result = on_result
        self._install_query(query)
        self._flood(QueryAnnounce(query))
        self._schedule_finalize(query, 0)
        return query

    # ------------------------------------------------------------------
    # dissemination
    # ------------------------------------------------------------------
    def _flood(self, announce: QueryAnnounce) -> None:
        obs = self.trace.obs
        if obs is not None:
            obs.registry.inc("agg.announce", node=self.node.node_id)
        self.stack.send_local_broadcast(
            AGGREGATION_PORT, announce, announce.size_bytes
        )

    def _on_datagram(self, datagram: Any) -> None:
        payload = datagram.payload
        if isinstance(payload, QueryAnnounce):
            self._handle_announce(payload)
        elif isinstance(payload, PartialRecord):
            self._handle_partial(payload, getattr(datagram, "trace_ctx", None))

    def _handle_announce(self, announce: QueryAnnounce) -> None:
        query = announce.query
        if query.query_id in self._seen_queries:
            return
        self._seen_queries.add(query.query_id)
        self._install_query(query)
        # Rebroadcast once, jittered, to continue the flood.
        self.sim.schedule(
            self._draws().uniform(0.2, 2.0), lambda: self._flood(announce)
        )

    def _install_query(self, query: AggregationQuery) -> None:
        self.queries[query.query_id] = query
        self._seen_queries.add(query.query_id)
        if not self.node.is_root:
            next_epoch = max(0, query.epoch_index(self.sim.now) + 1)
            self._schedule_send(query, next_epoch)

    def _expired(self, query: AggregationQuery, epoch: int) -> bool:
        return bool(
            query.lifetime_epochs and epoch >= query.lifetime_epochs
        )

    # ------------------------------------------------------------------
    # node-side epoch machinery
    # ------------------------------------------------------------------
    def _depth(self) -> int:
        rank = self.stack.rpl.rank
        if rank >= 0xFFFF:
            return self.SCHEDULE_DEPTH
        return max(1, rank // 256 - 1 + 1)

    def _send_offset(self, query: AggregationQuery) -> float:
        """Depth-staggered offset: deeper nodes send earlier."""
        usable = query.epoch_s * (1.0 - self.EARLIEST_FRACTION)
        slot = usable / self.SCHEDULE_DEPTH
        depth = min(self._depth(), self.SCHEDULE_DEPTH)
        offset = query.epoch_s - depth * slot
        return max(query.epoch_s * self.EARLIEST_FRACTION,
                   offset - self._draws().uniform(0, slot * 0.5))

    def _schedule_send(self, query: AggregationQuery, epoch: int) -> None:
        if self._expired(query, epoch):
            return
        when = query.epoch_start(epoch) + self._send_offset(query)
        if when <= self.sim.now:
            when = self.sim.now + 0.01
        self.sim.schedule_at(when, lambda: self._send_partial(query, epoch))

    def _send_partial(self, query: AggregationQuery, epoch: int) -> None:
        if query.query_id not in self.queries:
            return
        self._schedule_send(query, epoch + 1)
        if not self.node.alive:
            return
        operator = OPERATORS[query.operator]
        state, count = self._accumulators.pop((query.query_id, epoch), (None, 0))
        sensor = self.node.sensors.get(query.field)
        if sensor is not None:
            reading = sensor.read()
            if reading is not None:
                own = operator.initialize(reading)
                state = own if state is None else operator.merge(state, own)
                count += 1
        if state is None:
            return
        parent = self.stack.rpl.preferred_parent
        if parent is None:
            self.trace.emit(self.sim.now, "agg.orphan_partial",
                            node=self.node.node_id, epoch=epoch)
            return
        record = PartialRecord(
            query_id=query.query_id, epoch=epoch,
            state=state, count=count, state_bytes=operator.state_bytes,
        )
        self.records_sent += 1
        self.bytes_sent += record.size_bytes
        obs = self.trace.obs
        ctx = None
        done = None
        if obs is not None:
            # One span per contributed partial; the datagram journey to
            # the parent (and each fold along the way) nests beneath it.
            ctx = obs.spans.start(
                None, "agg.partial", node=self.node.node_id,
                t=self.sim.now, epoch=epoch, count=count,
            )

            def done(ok: bool, _ctx=ctx) -> None:
                obs.spans.finish(_ctx, self.sim.now, ok=ok)

        self.stack.send_datagram(parent, AGGREGATION_PORT, record,
                                 record.size_bytes, done=done, trace_ctx=ctx)

    def _handle_partial(self, record: PartialRecord, ctx: Any = None) -> None:
        query = self.queries.get(record.query_id)
        if query is None:
            return
        operator = OPERATORS[query.operator]
        # A record folds into the epoch it was sent for; one arriving
        # after this node sent (root: finalised) that epoch is never read.
        epoch = record.epoch
        key = (record.query_id, epoch)
        state, count = self._accumulators.get(key, (None, 0))
        merged = record.state if state is None else operator.merge(state, record.state)
        self._accumulators[key] = (merged, count + record.count)
        obs = self.trace.obs
        if obs is not None:
            obs.registry.inc("agg.fold", node=self.node.node_id)
            obs.spans.event(ctx, "agg.fold", node=self.node.node_id,
                            t=self.sim.now, epoch=epoch,
                            count=count + record.count)

    # ------------------------------------------------------------------
    # root-side finalize
    # ------------------------------------------------------------------
    def _schedule_finalize(self, query: AggregationQuery, epoch: int) -> None:
        if self._expired(query, epoch):
            return
        when = query.epoch_start(epoch + 1) + query.epoch_s * self.GRACE_FRACTION
        self.sim.schedule_at(when, lambda: self._finalize(query, epoch))

    def _finalize(self, query: AggregationQuery, epoch: int) -> None:
        self._schedule_finalize(query, epoch + 1)
        operator = OPERATORS[query.operator]
        state, count = self._accumulators.pop((query.query_id, epoch), (None, 0))
        sensor = self.node.sensors.get(query.field)
        if sensor is not None:
            reading = sensor.read()
            if reading is not None:
                own = operator.initialize(reading)
                state = own if state is None else operator.merge(state, own)
                count += 1
        if state is None:
            return
        result = EpochResult(
            epoch=epoch,
            value=operator.finalize(state),
            node_count=count,
            finalized_at=self.sim.now,
        )
        self.results.append(result)
        self.trace.emit(self.sim.now, "agg.result", node=self.node.node_id,
                        epoch=epoch, value=result.value, count=count)
        obs = self.trace.obs
        if obs is not None:
            obs.registry.inc("agg.result", node=self.node.node_id)
            obs.registry.observe("agg.contributions", count,
                                 node=self.node.node_id)
            # The epoch span covers the whole collection window: opened
            # retroactively at the epoch boundary, closed at finalize,
            # with the answer and contribution count.
            ctx = obs.spans.start(
                None, "agg.epoch", node=self.node.node_id,
                t=query.epoch_start(epoch), epoch=epoch,
            )
            obs.spans.finish(ctx, self.sim.now, value=result.value,
                             contributions=count)
        if self.on_result is not None:
            self.on_result(result)


class RawCollectionService(LazyStream):
    """Baseline: every node ships raw readings to the root each epoch."""

    def __init__(self, node: DeviceNode, root_id: int) -> None:
        self.node = node
        self.stack = node.stack
        self.sim = node.sim
        self.trace = self.stack.trace
        self.root_id = root_id
        self.readings_sent = 0
        #: Root only: epoch -> list of values.
        self.received: Dict[int, List[float]] = {}
        self._field = ""
        self._epoch_s = 0.0
        self._start = 0.0
        self._running = False
        self._stream = f"raw.{node.node_id}"
        self.stack.bind(RAW_PORT, self._on_datagram)

    def start(self, field_name: str, epoch_s: float) -> None:
        """Begin per-epoch reporting (no-op on the root, which collects)."""
        self._field = field_name
        self._epoch_s = epoch_s
        self._start = self.sim.now
        self._running = True
        if not self.node.is_root:
            self._schedule(1)

    def stop(self) -> None:
        self._running = False

    def _schedule(self, epoch: int) -> None:
        when = (
            self._start + epoch * self._epoch_s
            + self._draws().uniform(0, self._epoch_s * 0.8)
        )
        self.sim.schedule_at(when, lambda: self._report(epoch))

    def _report(self, epoch: int) -> None:
        if not self._running:
            return
        self._schedule(epoch + 1)
        if not self.node.alive:
            return
        sensor = self.node.sensors.get(self._field)
        if sensor is None:
            return
        value = sensor.read()
        if value is None:
            return
        reading = RawReading(field_name=self._field, epoch=epoch, value=value)
        self.readings_sent += 1
        self.stack.send_datagram(
            self.root_id, RAW_PORT, reading, reading.size_bytes
        )

    def _on_datagram(self, datagram: Any) -> None:
        reading = datagram.payload
        if not isinstance(reading, RawReading):
            return
        self.received.setdefault(reading.epoch, []).append(reading.value)
