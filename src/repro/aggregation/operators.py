"""Aggregate operators over partial state records.

Following TinyDB's taxonomy, each operator defines an initializer (one
reading → partial state), a merge (two partials → one), and an evaluator
(partial → result).  Distributive (MIN/MAX/SUM/COUNT) and algebraic
(AVG) operators keep constant-size partials — the property that makes
in-network aggregation pay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict


@dataclass(frozen=True)
class AggregateOperator:
    """One aggregation function as (init, merge, finalize)."""

    name: str
    initialize: Callable[[float], Any]
    merge: Callable[[Any, Any], Any]
    finalize: Callable[[Any], float]
    #: Bytes one partial state record occupies on the air.
    state_bytes: int


MIN = AggregateOperator(
    name="min",
    initialize=lambda v: v,
    merge=lambda a, b: a if a <= b else b,
    finalize=lambda s: s,
    state_bytes=4,
)

MAX = AggregateOperator(
    name="max",
    initialize=lambda v: v,
    merge=lambda a, b: a if a >= b else b,
    finalize=lambda s: s,
    state_bytes=4,
)

SUM = AggregateOperator(
    name="sum",
    initialize=lambda v: v,
    merge=lambda a, b: a + b,
    finalize=lambda s: s,
    state_bytes=4,
)

COUNT = AggregateOperator(
    name="count",
    initialize=lambda v: 1,
    merge=lambda a, b: a + b,
    finalize=lambda s: float(s),
    state_bytes=4,
)

AVG = AggregateOperator(
    name="avg",
    initialize=lambda v: (v, 1),
    merge=lambda a, b: (a[0] + b[0], a[1] + b[1]),
    finalize=lambda s: s[0] / s[1] if s[1] else float("nan"),
    state_bytes=8,
)

OPERATORS: Dict[str, AggregateOperator] = {
    op.name: op for op in (MIN, MAX, SUM, COUNT, AVG)
}
