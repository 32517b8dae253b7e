"""Statistical helpers: confidence intervals."""

import math
import sys

import pytest

from repro.core.analysis import confidence_interval


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


def test_missing_scipy_names_the_extra(monkeypatch):
    # None in sys.modules makes `import scipy` raise, as on an install
    # without the optional extra.
    monkeypatch.setitem(sys.modules, "scipy", None)
    with pytest.raises(ImportError, match=r"repro\[analysis\]"):
        confidence_interval([1.0, 2.0, 3.0])
    # What needs no t quantile still answers.
    assert confidence_interval([7.0]).mean == 7.0
