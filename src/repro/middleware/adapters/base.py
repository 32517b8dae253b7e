"""The adapter contract: one implementation per legacy protocol.

This is the middleware economics the E12 experiment quantifies: with a
common point abstraction, integrating *k* protocols costs *k* adapters;
without it, every pair of systems that must talk needs its own
translator, and the cost grows quadratically.
"""

from __future__ import annotations

import abc
from typing import Callable, Optional


class AdapterError(RuntimeError):
    """Raised for protocol-level failures while talking to a device."""


class ProtocolAdapter(abc.ABC):
    """Uniform async point access over one legacy device.

    Points are named channels ("temp", "valve"); reads and writes
    complete asynchronously after the legacy bus's polling latency.
    """

    #: Protocol family name (for the gateway's registry).
    protocol: str = "abstract"

    @abc.abstractmethod
    def read_point(
        self, name: str, callback: Callable[[Optional[float]], None]
    ) -> None:
        """Read a point; ``callback(value_or_None)`` fires after the
        bus round trip."""

    @abc.abstractmethod
    def write_point(
        self, name: str, value: float, callback: Callable[[bool], None]
    ) -> None:
        """Write a point; ``callback(ok)`` fires after the round trip."""
