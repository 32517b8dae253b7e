"""Statistical helpers: confidence intervals and linear fits."""

import math
import sys

import pytest

from repro.core.analysis import (
    IntervalEstimate,
    confidence_interval,
    linear_fit,
    sweep_intervals,
)
from repro.core.experiment import Trial


class TestConfidenceInterval:
    def test_interval_contains_mean(self):
        estimate = confidence_interval([1.0, 2.0, 3.0, 4.0, 5.0])
        assert estimate.lower <= estimate.mean <= estimate.upper
        assert estimate.mean == pytest.approx(3.0)
        assert estimate.n == 5

    def test_single_sample_degenerates(self):
        estimate = confidence_interval([7.0])
        assert estimate.mean == estimate.lower == estimate.upper == 7.0
        assert estimate.half_width == 0.0

    def test_zero_variance_is_tight(self):
        estimate = confidence_interval([2.0, 2.0, 2.0])
        assert estimate.half_width == pytest.approx(0.0)

    def test_wider_confidence_wider_interval(self):
        samples = [1.0, 4.0, 2.0, 6.0, 3.0]
        narrow = confidence_interval(samples, confidence=0.80)
        wide = confidence_interval(samples, confidence=0.99)
        assert wide.half_width > narrow.half_width

    def test_more_samples_tighter_interval(self):
        few = confidence_interval([1.0, 3.0, 2.0])
        many = confidence_interval([1.0, 3.0, 2.0] * 10)
        assert many.half_width < few.half_width

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            confidence_interval([])
        with pytest.raises(ValueError):
            confidence_interval([1.0], confidence=1.5)

    def test_str_format(self):
        assert "±" in str(confidence_interval([1.0, 2.0]))


class TestLinearFit:
    def test_exact_line_recovered(self):
        points = [(x, 2.0 * x + 1.0) for x in range(6)]
        fit = linear_fit(points)
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(1.0)
        assert fit.r_squared == pytest.approx(1.0)
        assert fit.predict(10.0) == pytest.approx(21.0)

    def test_noisy_line_good_fit(self):
        import random

        rng = random.Random(3)
        points = [(x, 0.5 * x + rng.gauss(0, 0.05)) for x in range(20)]
        fit = linear_fit(points)
        assert fit.slope == pytest.approx(0.5, abs=0.05)
        assert fit.r_squared > 0.95

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            linear_fit([(0.0, 0.0)])


class TestSweepIntervals:
    def test_groups_by_parameter(self):
        trials = [
            Trial(params={"n": 1}, seed=s, metrics={"m": 1.0 + s * 0.1})
            for s in range(4)
        ] + [
            Trial(params={"n": 2}, seed=s, metrics={"m": 5.0})
            for s in range(3)
        ]
        rows = sweep_intervals(trials, "n", "m")
        assert [row["n"] for row in rows] == [1, 2]
        assert rows[0]["trials"] == 4
        assert rows[1]["m mean"] == pytest.approx(5.0)
        assert rows[1]["m ci95 low"] == pytest.approx(5.0)


def test_missing_scipy_names_the_extra(monkeypatch):
    # None in sys.modules makes `import scipy` raise, as on an install
    # without the optional extra.
    monkeypatch.setitem(sys.modules, "scipy", None)
    with pytest.raises(ImportError, match=r"repro\[analysis\]"):
        confidence_interval([1.0, 2.0, 3.0])
    with pytest.raises(ImportError, match=r"repro\[analysis\]"):
        linear_fit([(0.0, 0.0), (1.0, 1.0)])
    # What needs no t quantile still answers.
    assert confidence_interval([7.0]).mean == 7.0
