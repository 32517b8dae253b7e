"""Cross-layer measurement helpers.

Experiments read protocol counters and the trace; these helpers reduce
them to the summary statistics the benchmark tables print.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence

from repro.devices.node import DeviceNode


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; NaN on empty input."""
    return sum(values) / len(values) if values else float("nan")


@dataclass
class EnergySummary:
    """Per-node charge/duty-cycle over a window."""

    node_id: int
    duty_cycle: float
    average_current_ma: float
    projected_lifetime_days: float


def collect_energy(
    nodes: Iterable[DeviceNode], now: float, skip_root: bool = True
) -> List[EnergySummary]:
    """Energy summaries for a population (roots excluded by default —
    they are mains powered)."""
    summaries = []
    for node in nodes:
        if skip_root and node.is_root:
            continue
        summaries.append(
            EnergySummary(
                node_id=node.node_id,
                duty_cycle=node.stack.mac.duty_cycle(),
                average_current_ma=node.energy.average_current_ma(now),
                projected_lifetime_days=node.energy.projected_lifetime_days(now),
            )
        )
    return summaries
