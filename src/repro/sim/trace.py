"""Structured event tracing: one event channel.

Every layer of the stack emits trace records (packet sent, parent
changed, comfort violated, ...).  A :class:`TraceLog` turns each emit
into three things and stores nothing else:

- a per-category **counter**, always;
- a call to every **subscriber** of the category — checkers, metric
  collectors and experiments register before the window they measure;
- when ``enabled``, an entry in a bounded **tail** of the most recent
  records, which repro bundles read when a seed fails.

Measurement code therefore stays out of the protocols, and a run's
memory does not grow with its length.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional

#: Records the tail keeps.  A repro bundle takes the trailing 120 s of
#: simulated time (``SeedSweepRunner``'s default window); across the
#: builtin grid(3) sweep scenarios the busiest 120 s holds ≈5 600
#: records (``rnfd-root-failure``: the root crash, its poisoning and the
#: DIS storm after it), so 8 192 keeps that window whole with ≈1.5×
#: headroom at a few MB.
TAIL = 8192


@dataclass(frozen=True)
class TraceRecord:
    """One traced occurrence.

    Attributes
    ----------
    time:
        Simulated time of the occurrence.
    category:
        Dotted namespace, e.g. ``"mac.tx"`` or ``"rpl.parent_change"``.
    node:
        Originating node id, or None for system-wide records.
    data:
        Free-form payload describing the occurrence.
    """

    time: float
    category: str
    node: Optional[int]
    data: Dict[str, Any] = field(default_factory=dict)


class TraceLog:
    """Counters and subscribers for every emit, plus a bounded tail.

    ``enabled`` keeps the last :data:`TAIL` records in ``tail`` for repro
    bundles; off (the default), a record is only built when a subscriber
    will see it.  Counters accumulate either way.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.counters: Dict[str, int] = {}
        self._subscribers: Dict[str, List[Callable[[TraceRecord], None]]] = {}
        #: The most recent records, oldest first; empty unless enabled.
        self.tail: Deque[TraceRecord] = deque(maxlen=TAIL)
        #: The run's observability bundle (:class:`repro.obs.Observability`),
        #: attached externally; None keeps instrumentation disabled.
        self.obs = None
        #: The run's installed :class:`repro.faults.plan.FaultPlan`
        #: (clauses accumulate across installs).  Repro bundles read it
        #: so a failing seed ships its own injection script.
        self.fault_plan = None

    def emit(
        self,
        time: float,
        category: str,
        node: Optional[int] = None,
        **data: Any,
    ) -> None:
        """Count one occurrence and notify subscribers.

        Counters always accumulate; the :class:`TraceRecord` itself is
        only built when someone will see it (the tail is enabled, or a
        subscriber on this category).  Disabled-and-unwatched emits are
        therefore nearly free — the common case, which is why protocols
        can trace liberally.
        """
        counters = self.counters
        counters[category] = counters.get(category, 0) + 1
        subscribers = self._subscribers.get(category)
        if not self.enabled and not subscribers:
            return
        record = TraceRecord(time=time, category=category, node=node, data=data)
        if self.enabled:
            self.tail.append(record)
        if subscribers:
            # Iterate over a snapshot: a callback may unsubscribe
            # (itself or another subscriber) while the loop runs.
            for callback in tuple(subscribers):
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
        callbacks = self._subscribers.setdefault(category, [])
        callbacks.append(callback)

        def unsubscribe() -> None:
            try:
                callbacks.remove(callback)
            except ValueError:
                pass  # already removed

        return unsubscribe

    def count(self, category: str) -> int:
        """Total records emitted in ``category`` (even while disabled)."""
        return self.counters.get(category, 0)
