"""Map CRDT: last-writer-wins map.

The workhorse for replicated device state: key → LWW-resolved value,
e.g. the setpoint table a partitioned HVAC zone keeps serving from.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Tuple

from repro.crdt.base import StateCrdt
from repro.crdt.registers import LWWRegister


class LWWMap(StateCrdt):
    """A dictionary whose entries resolve by last-writer-wins."""

    def __init__(self, replica_id: int) -> None:
        self.replica_id = replica_id
        self._registers: Dict[Any, LWWRegister] = {}

    def set(self, key: Any, value: Any, timestamp: float) -> None:
        """Write ``key`` at ``timestamp`` (simulated time)."""
        register = self._registers.get(key)
        if register is None:
            register = LWWRegister(self.replica_id)
            self._registers[key] = register
        register.set(value, timestamp)

    def get(self, key: Any, default: Any = None) -> Any:
        register = self._registers.get(key)
        if register is None:
            return default
        return register.value()

    def merge(self, other: StateCrdt) -> bool:
        self._require_same_type(other)
        assert isinstance(other, LWWMap)
        changed = False
        for key, register in other._registers.items():
            mine = self._registers.get(key)
            if mine is None:
                clone = register.copy()
                clone.replica_id = self.replica_id
                self._registers[key] = clone
                changed = True
            elif mine.merge(register):
                changed = True
        return changed

    def value(self) -> Dict[Any, Any]:
        return {
            key: register.value()
            for key, register in self._registers.items()
        }

    def items(self) -> Iterator[Tuple[Any, Any]]:
        return iter(self.value().items())

    def copy(self) -> "LWWMap":
        clone = LWWMap(self.replica_id)
        clone._registers = {k: r.copy() for k, r in self._registers.items()}
        return clone

    def size_bytes(self) -> int:
        return 4 + sum(8 + r.size_bytes() for r in self._registers.values())

    def __len__(self) -> int:
        return len(self.value())

    def __contains__(self, key: Any) -> bool:
        return key in self._registers
