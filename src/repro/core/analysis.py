"""Statistical analysis over trial data.

Experiments report means; papers report means *with confidence*.  This
module adds Student-t confidence intervals for repeated trials and a
least-squares slope helper used to verify linear-growth claims (e.g.
E3's latency-per-hop) quantitatively rather than by eyeball.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple


def _scipy_stats():
    """``scipy.stats``, imported when a helper below is called: no
    simulation executes it, so no run pays its import (DESIGN.md, "Cold
    start")."""
    try:
        from scipy import stats
    except ImportError as exc:
        raise ImportError(
            "confidence_interval and linear_fit need scipy: install the "
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


@dataclass(frozen=True)
class LinearFit:
    """Least-squares line with goodness of fit."""

    slope: float
    intercept: float
    r_squared: float

    def predict(self, x: float) -> float:
        return self.slope * x + self.intercept


def linear_fit(points: Sequence[Tuple[float, float]]) -> LinearFit:
    """Ordinary least squares over (x, y) pairs."""
    if len(points) < 2:
        raise ValueError("need at least two points")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    result = _scipy_stats().linregress(xs, ys)
    return LinearFit(slope=float(result.slope),
                     intercept=float(result.intercept),
                     r_squared=float(result.rvalue ** 2))


def sweep_intervals(
    trials: Sequence, parameter: str, metric: str,
    confidence: float = 0.95,
) -> List[Dict[str, object]]:
    """Per-sweep-value CI rows from :class:`repro.core.experiment.Trial`
    lists — drop-in enrichment of ``Sweep.rows()``."""
    grouped: Dict[object, List[float]] = {}
    order: List[object] = []
    for trial in trials:
        value = trial.params[parameter]
        if value not in grouped:
            grouped[value] = []
            order.append(value)
        if metric in trial.metrics:
            grouped[value].append(trial.metrics[metric])
    rows = []
    for value in order:
        estimate = confidence_interval(grouped[value], confidence)
        rows.append({
            parameter: value,
            f"{metric} mean": estimate.mean,
            f"{metric} ci95 low": estimate.lower,
            f"{metric} ci95 high": estimate.upper,
            "trials": estimate.n,
        })
    return rows
