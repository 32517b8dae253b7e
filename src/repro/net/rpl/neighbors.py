"""Neighbor tables and EWMA ETX link estimation.

ETX (expected transmission count) is estimated from MAC-layer unicast
feedback: each transmission outcome updates an exponentially weighted
delivery-probability estimate, ETX = 1/p.  Before any unicast feedback
exists, the estimate is seeded from DIO receptions (a weak prior), or —
when ``oracle_seed`` is enabled, the default for experiments that are
not about link estimation itself — from the medium's ground-truth PRR,
which removes estimator warm-up as a confound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.net.rpl.messages import DioMessage

#: Weight of the newest unicast outcome in the EWMA (read at each update).
EWMA_ALPHA = 0.2


@dataclass
class LinkEstimator:
    """EWMA delivery-probability estimator for one directed link."""

    probability: float = 0.75
    samples: int = 0

    def update(self, success: bool) -> None:
        """Fold one unicast outcome into the estimate."""
        outcome = 1.0 if success else 0.0
        self.probability = (1 - EWMA_ALPHA) * self.probability + EWMA_ALPHA * outcome
        self.samples += 1

    @property
    def etx(self) -> float:
        """Expected transmissions for one success (clamped at 16)."""
        if self.probability <= 1.0 / 16.0:
            return 16.0
        return 1.0 / self.probability


@dataclass
class NeighborEntry:
    """Everything we know about one routing neighbor."""

    node_id: int
    estimator: LinkEstimator = field(default_factory=LinkEstimator)
    rank: int = 0xFFFF
    version: int = -1
    grounded: bool = True
    dodag_id: Optional[int] = None
    last_dio_time: float = float("-inf")
    dio_count: int = 0
    blacklisted_until: float = float("-inf")

    def observe_dio(self, dio: DioMessage, now: float) -> None:
        self.rank = dio.rank
        self.version = dio.version
        self.grounded = dio.grounded
        self.dodag_id = dio.dodag_id
        self.last_dio_time = now
        self.dio_count += 1

    @property
    def etx(self) -> float:
        return self.estimator.etx


class NeighborTable:
    """Bounded neighbor table with eviction of the stalest entry."""

    def __init__(self, capacity: int = 32) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._entries: Dict[int, NeighborEntry] = {}

    def get(self, node_id: int) -> Optional[NeighborEntry]:
        return self._entries.get(node_id)

    def get_or_create(self, node_id: int) -> NeighborEntry:
        entry = self._entries.get(node_id)
        if entry is None:
            if len(self._entries) >= self.capacity:
                self._evict_stalest()
            entry = NeighborEntry(node_id=node_id)
            self._entries[node_id] = entry
        return entry

    def _evict_stalest(self) -> None:
        stalest = min(self._entries.values(), key=lambda e: e.last_dio_time)
        del self._entries[stalest.node_id]

    def remove(self, node_id: int) -> None:
        self._entries.pop(node_id, None)

    def blacklist(self, node_id: int, until: float) -> None:
        """Temporarily exclude a neighbor from parent selection (after
        repeated unicast failures — local repair's first move)."""
        entry = self._entries.get(node_id)
        if entry is not None:
            entry.blacklisted_until = until

    def candidates(self, now: float):
        """Neighbors eligible for parent selection right now."""
        return [
            entry for entry in self._entries.values()
            if entry.blacklisted_until <= now
        ]

    def values(self):
        return self._entries.values()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._entries
