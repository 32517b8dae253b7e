"""Counter CRDT: G-Counter."""

from __future__ import annotations

from typing import Dict

from repro.crdt.base import StateCrdt


class GCounter(StateCrdt):
    """Grow-only counter: one monotone slot per replica."""

    def __init__(self, replica_id: int) -> None:
        self.replica_id = replica_id
        self.slots: Dict[int, int] = {}

    def increment(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative) at this replica."""
        if amount < 0:
            raise ValueError("GCounter cannot decrement")
        self.slots[self.replica_id] = self.slots.get(self.replica_id, 0) + amount

    def merge(self, other: StateCrdt) -> bool:
        self._require_same_type(other)
        assert isinstance(other, GCounter)
        changed = False
        for replica, count in other.slots.items():
            if count > self.slots.get(replica, 0):
                self.slots[replica] = count
                changed = True
        return changed

    def value(self) -> int:
        return sum(self.slots.values())

    def copy(self) -> "GCounter":
        clone = GCounter(self.replica_id)
        clone.slots = dict(self.slots)
        return clone

    def size_bytes(self) -> int:
        return 4 + 6 * len(self.slots)
