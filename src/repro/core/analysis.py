"""Statistical analysis over trial data.

Experiments report means; papers report means *with confidence*.  This
module adds Student-t confidence intervals for repeated trials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


def _scipy_stats():
    """``scipy.stats``, imported when the helper below is called: no
    simulation executes it, so no run pays its import (DESIGN.md, "Cold
    start")."""
    try:
        from scipy import stats
    except ImportError as exc:
        raise ImportError(
            "confidence_interval needs scipy: install the "
            "'analysis' extra (pip install 'repro[analysis]')"
        ) from exc
    return stats


@dataclass(frozen=True)
class IntervalEstimate:
    """A mean with its two-sided confidence interval."""

    mean: float
    lower: float
    upper: float
    confidence: float
    n: int

    @property
    def half_width(self) -> float:
        return (self.upper - self.lower) / 2.0

    def __str__(self) -> str:
        return f"{self.mean:.4g} ± {self.half_width:.2g} ({self.confidence:.0%})"


def confidence_interval(
    samples: Sequence[float], confidence: float = 0.95
) -> IntervalEstimate:
    """Student-t CI of the mean (exact for small n, normal for large)."""
    if not samples:
        raise ValueError("samples must be non-empty")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    n = len(samples)
    mean = sum(samples) / n
    if n == 1:
        return IntervalEstimate(mean=mean, lower=mean, upper=mean,
                                confidence=confidence, n=1)
    variance = sum((x - mean) ** 2 for x in samples) / (n - 1)
    sem = math.sqrt(variance / n)
    t = _scipy_stats().t.ppf(0.5 + confidence / 2.0, df=n - 1)
    return IntervalEstimate(
        mean=mean, lower=mean - t * sem, upper=mean + t * sem,
        confidence=confidence, n=n,
    )
