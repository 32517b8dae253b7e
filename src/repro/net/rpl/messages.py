"""RPL control messages (compressed sizes).

Sizes follow typical 6LoWPAN-compressed ICMPv6 RPL messages; exact
values matter only in that control overhead is charged to the medium
like any other traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict


@dataclass(frozen=True)
class DioMessage:
    """DODAG Information Object — the routing beacon.

    ``options`` carries piggybacked extensions (RNFD's CFRC rides here,
    exactly as the RNFD paper piggybacks on routing beacons).
    """

    dodag_id: int
    version: int
    rank: int
    grounded: bool = True
    options: Dict[str, Any] = field(default_factory=dict)

    SIZE_BYTES = 24

    @property
    def size_bytes(self) -> int:
        return self.SIZE_BYTES + (8 if self.options else 0)


@dataclass(frozen=True)
class DisMessage:
    """DODAG Information Solicitation — "send me a DIO"."""

    SIZE_BYTES = 6

    @property
    def size_bytes(self) -> int:
        return self.SIZE_BYTES


@dataclass(frozen=True)
class DaoMessage:
    """Destination Advertisement Object (non-storing): advertises the
    sender's parent to the root so it can assemble source routes."""

    node: int
    parent: int
    path_seq: int

    SIZE_BYTES = 20

    @property
    def size_bytes(self) -> int:
        return self.SIZE_BYTES


@dataclass(frozen=True)
class RnfdProbe:
    """RNFD sentinel probe to the root (link-layer ACK is the answer)."""

    seq: int

    SIZE_BYTES = 8

    @property
    def size_bytes(self) -> int:
        return self.SIZE_BYTES


@dataclass(frozen=True)
class RnfdGossip:
    """Standalone CFRC gossip (used between DIOs when state changes)."""

    entries: Dict[int, tuple]

    @property
    def size_bytes(self) -> int:
        return 6 + 4 * len(self.entries)
