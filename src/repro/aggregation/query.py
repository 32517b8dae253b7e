"""Aggregation queries: what the root asks the network to compute."""

from __future__ import annotations

from dataclasses import dataclass

from repro.aggregation.operators import OPERATORS


@dataclass(frozen=True)
class AggregationQuery:
    """``SELECT op(field) FROM sensors SAMPLE PERIOD epoch_s`` (TinyDB).

    ``start_time`` anchors the global epoch grid: epoch *i* covers
    ``[start_time + i·epoch_s, start_time + (i+1)·epoch_s)``, the shared
    schedule children and parents coordinate on.
    """

    query_id: int
    field: str
    operator: str
    epoch_s: float
    start_time: float
    lifetime_epochs: int = 0  # 0 = run until cancelled

    SIZE_BYTES = 16

    def __post_init__(self) -> None:
        if self.operator not in OPERATORS:
            raise ValueError(
                f"unknown operator {self.operator!r}; "
                f"choose from {sorted(OPERATORS)}"
            )
        if self.epoch_s <= 0:
            raise ValueError("epoch_s must be positive")

    def epoch_index(self, time: float) -> int:
        """Which epoch ``time`` falls into (negative before start)."""
        return int((time - self.start_time) // self.epoch_s)

    def epoch_start(self, index: int) -> float:
        return self.start_time + index * self.epoch_s
