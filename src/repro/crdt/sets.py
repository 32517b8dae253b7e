"""Set CRDT: OR-Set."""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Set, Tuple

from repro.crdt.base import StateCrdt


class ORSet(StateCrdt):
    """Observed-remove set: concurrent add wins over remove.

    Every add carries a unique tag; a remove tombstones only the tags it
    has *observed*, so an add concurrent with the remove survives — the
    semantics the paper's "decentralized resolution of potentially
    conflicting updates" needs for things like active-alarm sets.  A tag
    is ``(replica_id, n)`` with ``n`` counted by the replica that adds,
    so a replica id names one writer.
    """

    def __init__(self, replica_id: int) -> None:
        self.replica_id = replica_id
        #: item -> live tags.
        self.entries: Dict[Any, Set[Tuple[int, int]]] = {}
        #: tombstoned tags.
        self.tombstones: Set[Tuple[int, int]] = set()
        self._adds = 0

    def add(self, item: Any) -> None:
        self._adds += 1
        tag = (self.replica_id, self._adds)
        self.entries.setdefault(item, set()).add(tag)

    def remove(self, item: Any) -> None:
        tags = self.entries.pop(item, set())
        self.tombstones |= tags

    def merge(self, other: StateCrdt) -> bool:
        self._require_same_type(other)
        assert isinstance(other, ORSet)
        changed = False
        if not other.tombstones <= self.tombstones:
            self.tombstones |= other.tombstones
            changed = True
        for item, tags in other.entries.items():
            live = tags - self.tombstones
            mine = self.entries.get(item, set())
            merged = (mine | live) - self.tombstones
            if merged != mine:
                if merged:
                    self.entries[item] = merged
                else:
                    self.entries.pop(item, None)
                changed = True
        # Drop any of our tags newly tombstoned by the merge.
        for item in list(self.entries):
            live = self.entries[item] - self.tombstones
            if live != self.entries[item]:
                changed = True
                if live:
                    self.entries[item] = live
                else:
                    del self.entries[item]
        return changed

    def value(self) -> FrozenSet[Any]:
        return frozenset(self.entries)

    def copy(self) -> "ORSet":
        clone = ORSet(self.replica_id)
        clone.entries = {item: set(tags) for item, tags in self.entries.items()}
        clone.tombstones = set(self.tombstones)
        clone._adds = self._adds
        return clone

    def size_bytes(self) -> int:
        tags = sum(len(t) for t in self.entries.values())
        return 4 + 10 * tags + 6 * len(self.tombstones)

    def __contains__(self, item: Any) -> bool:
        return item in self.entries
