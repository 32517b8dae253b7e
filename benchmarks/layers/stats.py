"""The few statistics the benchmark reports."""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Optional, Sequence


def nearest_rank(ascending: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank percentile of an ascending sequence (None if empty)."""
    if not ascending:
        return None
    rank = -(-len(ascending) * q // 100)  # ceil
    return ascending[max(1, int(rank)) - 1]


def summary(values: List[float]) -> Dict[str, Any]:
    """Median, quartiles and n of one host metric's repetitions."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "values": list(values)}


def ratio(numerator: float, denominator: float) -> Optional[float]:
    """``numerator / denominator``, or None when there is no base."""
    return numerator / denominator if denominator else None
