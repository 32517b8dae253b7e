"""Register CRDT: last-writer-wins."""

from __future__ import annotations

from typing import Any, Tuple

from repro.crdt.base import StateCrdt


class LWWRegister(StateCrdt):
    """Last-writer-wins register.

    Ordered by (timestamp, replica id) so concurrent writes resolve
    deterministically.  Timestamps are *simulated* time supplied by the
    caller — the CRDT itself never reads a clock.
    """

    def __init__(self, replica_id: int) -> None:
        self.replica_id = replica_id
        self._value: Any = None
        self._stamp: Tuple[float, int] = (float("-inf"), replica_id)

    def set(self, value: Any, timestamp: float) -> None:
        """Write at ``timestamp``; stale writes are ignored."""
        stamp = (timestamp, self.replica_id)
        if stamp > self._stamp:
            self._value = value
            self._stamp = stamp

    def merge(self, other: StateCrdt) -> bool:
        self._require_same_type(other)
        assert isinstance(other, LWWRegister)
        if other._stamp > self._stamp:
            self._value = other._value
            self._stamp = other._stamp
            return True
        return False

    def value(self) -> Any:
        return self._value

    def copy(self) -> "LWWRegister":
        clone = LWWRegister(self.replica_id)
        clone._value = self._value
        clone._stamp = self._stamp
        return clone

    def size_bytes(self) -> int:
        return 16
