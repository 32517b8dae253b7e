"""Structured event tracing: one event channel.

Every layer of the stack emits trace records (packet sent, parent
changed, comfort violated, ...).  A :class:`TraceLog` turns each emit
into three things and stores nothing else:

- a per-category **counter**, always;
- a call to every **subscriber** of the category — checkers, metric
  collectors and experiments register before the window they measure —
  and to every **stream subscriber**, which sees every record of every
  category in emission order (whole-run oracles, replay);
- when ``enabled``, an entry in a bounded **tail** of the most recent
  records (only the layered benchmark enables it: a failing sweep seed
  is replayed with a stream subscriber, not recorded in advance).

Measurement code therefore stays out of the protocols, and a run's
memory does not grow with its length.

An object that tallies an occurrence in an attribute registers it with
:meth:`TraceLog.add_reader`; the metrics registry reads it there.

Who is watching
---------------
A category is *watched* when it has a subscriber or a stream subscriber
is attached — the tail, when enabled, is one (:meth:`TraceLog.watched`).
An unwatched emit does exactly one thing — bump
``counters[category]`` — so a hot caller may ask once and then do that
bump itself, making no call at all (the medium does, per frame).  Every
change to the answer — ``enabled`` flipped, a subscription made or
dropped — bumps ``version``, so a caller's cached answer is re-checked
with one int compare.
"""

from __future__ import annotations

from collections import deque
from itertools import chain
from operator import attrgetter
from typing import (Any, Callable, Deque, Dict, Iterable, List, NamedTuple,
                    Optional, Tuple)

#: Records the tail keeps.  Only the layered benchmark's observed
#: workload still enables a tail; across the builtin grid(3) sweep
#: scenarios the busiest 120 s holds ≈5 600 records, so 8 192 holds
#: such a window whole at a few MB.
TAIL = 8192


class _Reader:
    """``(series key, count)`` for each row of ``table`` (see
    :meth:`TraceLog.add_reader`) and each owner, in registration order.
    An owner's keys are built at the first read and reused ever after:
    every telemetry window holds the keys of its series."""

    __slots__ = ("table", "labels", "counts", "owners", "nodes", "keys")

    def __init__(self, table: Tuple) -> None:
        self.table = table
        self.labels = [tuple(labels.items()) for _, labels, _ in table]
        get = attrgetter(*(path for _, _, path in table))
        self.counts = get if len(table) > 1 else lambda owner: (get(owner),)
        self.owners: List[Any] = []
        self.nodes: List[int] = []
        self.keys: List[Tuple[str, Any]] = []

    def __call__(self) -> Iterable[Tuple[Tuple[str, Any], int]]:
        keys = self.keys
        for node in self.nodes[len(keys) // len(self.table):]:
            node_only = (("node", node),)
            keys.extend((name, tuple(sorted(node_only + labels)) if labels
                         else node_only)
                        for (name, _, _), labels in zip(self.table, self.labels))
        return zip(keys, chain.from_iterable(map(self.counts, self.owners)))


class TraceRecord(NamedTuple):
    """One traced occurrence: an immutable tuple with named fields (a
    frozen dataclass cost three times as much to build, once per
    watched emit).

    Attributes
    ----------
    time:
        Simulated time of the occurrence.
    category:
        Dotted namespace, e.g. ``"mac.tx"`` or ``"rpl.parent_change"``.
    node:
        Originating node id, or None for system-wide records.
    data:
        Free-form payload describing the occurrence; ``emit`` passes
        each record its own.
    """

    time: float
    category: str
    node: Optional[int]
    data: Dict[str, Any]

    # Equal to a record with equal fields, never to a bare tuple.
    def __eq__(self, other: object) -> bool:
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other


Callback = Callable[[TraceRecord], None]


def _without(callbacks: Tuple[Callback, ...],
             callback: Callback) -> Optional[Tuple[Callback, ...]]:
    """``callbacks`` less the first ``callback``; None if it is absent."""
    if callback not in callbacks:
        return None
    i = callbacks.index(callback)
    return callbacks[:i] + callbacks[i + 1:]


class TraceLog:
    """Counters and subscribers for every emit, plus a bounded tail.

    ``enabled`` keeps the last :data:`TAIL` records in ``tail`` — the
    tail is a stream subscriber like any other; off (the default), a
    record is only built when a subscriber will see it.  Counters
    accumulate either way.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.counters: Dict[str, int] = {}
        self._subscribers: Dict[str, Tuple[Callback, ...]] = {}
        self._streams: Tuple[Callback, ...] = ()
        #: The most recent records, oldest first; empty unless enabled.
        self.tail: Deque[TraceRecord] = deque(maxlen=TAIL)
        #: The run's observability bundle (:class:`repro.obs.Observability`),
        #: attached externally; None keeps instrumentation disabled.
        self.obs = None
        #: One reader per table of counts (:meth:`add_reader`), by its id.
        self.readers: Dict[int, _Reader] = {}
        #: Changes whenever :meth:`watched` may answer differently.
        self.version = 0
        self._untail: Optional[Callable[[], None]] = None
        self.enabled = enabled

    @property
    def enabled(self) -> bool:
        """Whether the tail keeps records."""
        return self._untail is not None

    @enabled.setter
    def enabled(self, value: bool) -> None:
        if value and self._untail is None:
            self._untail = self.subscribe_stream(self.tail.append)
        elif not value and self._untail is not None:
            self._untail()
            self._untail = None

    def watched(self, category: str) -> bool:
        """Whether an emit in ``category`` would build a record.

        False means the emit would only bump ``counters[category]``; the
        answer holds until :attr:`version` changes.
        """
        return bool(self._streams) or bool(self._subscribers.get(category))

    def emit(
        self,
        time: float,
        category: str,
        node: Optional[int] = None,
        **data: Any,
    ) -> None:
        """Count one occurrence and notify subscribers.

        Counters always accumulate; the :class:`TraceRecord` itself is
        only built when someone will see it (the category is
        :meth:`watched`).  Unwatched emits are therefore nearly free —
        the common case, which is why protocols can trace liberally.
        Stream subscribers (the tail among them) see the record before
        the category's subscribers do, so a record a subscriber emits
        in response follows its cause in the stream.
        """
        counters = self.counters
        counters[category] = counters.get(category, 0) + 1
        subscribers = self._subscribers.get(category)
        streams = self._streams
        if not streams and not subscribers:
            return
        record = TraceRecord(time, category, node, data)
        # Subscriptions are replaced, never mutated, so a callback may
        # subscribe or unsubscribe while these loops run.
        for callback in streams:
            callback(record)
        if subscribers:
            for callback in subscribers:
                callback(record)

    def subscribe(
        self, category: str, callback: Callable[[TraceRecord], None]
    ) -> Callable[[], None]:
        """Invoke ``callback`` for every future record in ``category``.

        Returns an unsubscribe handle: a zero-argument callable that
        removes the subscription (idempotent).  Long-lived loggers can
        otherwise accumulate dead callbacks across repeated checker or
        detector setup/teardown cycles.
        """
        table = self._subscribers
        table[category] = table.get(category, ()) + (callback,)
        self.version += 1

        def unsubscribe() -> None:
            kept = _without(table.get(category, ()), callback)
            if kept is not None:
                table[category] = kept
                self.version += 1

        return unsubscribe

    def subscribe_stream(
        self, callback: Callable[[TraceRecord], None]
    ) -> Callable[[], None]:
        """Invoke ``callback`` for every future record, whatever its
        category, in emission order; returns an unsubscribe handle.

        While one is attached every category is watched, so every emit
        builds its record.
        """
        self._streams += (callback,)
        self.version += 1

        def unsubscribe() -> None:
            kept = _without(self._streams, callback)
            if kept is not None:
                self._streams = kept
                self.version += 1

        return unsubscribe

    def add_reader(self, owner: Any, node: int, table: Tuple) -> None:
        """Let the metrics registry read, as the counter ``name{node,
        labels}``, ``owner``'s attribute at the dotted ``path`` of each
        ``(name, labels, path)`` in ``table``, a class constant."""
        reader = self.readers.get(id(table))
        if reader is None:  # it holds ``table``, so the id stays unique
            reader = self.readers[id(table)] = _Reader(table)
        reader.owners.append(owner)
        reader.nodes.append(node)

    def count(self, category: str) -> int:
        """Total records emitted in ``category`` (even while disabled)."""
        return self.counters.get(category, 0)
