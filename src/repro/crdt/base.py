"""The state-based CRDT contract."""

from __future__ import annotations

import abc
from typing import Any


class StateCrdt(abc.ABC):
    """A state-based (convergent) replicated data type.

    Implementations must make :meth:`merge` a join-semilattice join:
    commutative, associative, and idempotent, with local mutations
    inflationary (state only grows in the lattice order).  Under those
    laws, replicas that exchange states in any order, any number of
    times, converge — the property the E9 experiment relies on when the
    network partitions.
    """

    @abc.abstractmethod
    def merge(self, other: "StateCrdt") -> bool:
        """Join ``other``'s state into ours.

        Returns True when our state changed (lets the replication layer
        skip redundant re-gossip).
        """

    @abc.abstractmethod
    def value(self) -> Any:
        """The query result this type resolves to."""

    @abc.abstractmethod
    def copy(self) -> "StateCrdt":
        """An independent deep copy (what gets shipped to peers)."""

    @abc.abstractmethod
    def size_bytes(self) -> int:
        """Approximate serialized size, charged to the medium when the
        state is gossiped."""

    def _require_same_type(self, other: "StateCrdt") -> None:
        if type(other) is not type(self):
            raise TypeError(
                f"cannot merge {type(other).__name__} into {type(self).__name__}"
            )
