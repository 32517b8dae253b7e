"""Edge cases of the core measurement helpers (repro.core.metrics)."""

import math

import pytest

from repro.core.metrics import mean, percentile


class TestPercentile:
    def test_single_element_is_every_percentile(self):
        for fraction in (0.0, 0.5, 0.95, 1.0):
            assert percentile([7.25], fraction) == 7.25

    def test_tied_values_never_interpolate_outside_the_data(self):
        values = [3.0, 3.0, 3.0, 3.0]
        for fraction in (0.25, 0.5, 0.9):
            assert percentile(values, fraction) == 3.0

    def test_empty_input_is_nan(self):
        assert math.isnan(percentile([], 0.5))

    def test_endpoints_are_min_and_max(self):
        values = [5.0, 1.0, 3.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 5.0

    def test_fraction_outside_unit_interval_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)
        with pytest.raises(ValueError):
            percentile([1.0], -0.1)

    def test_interpolates_between_ranks(self):
        assert percentile([0.0, 10.0], 0.25) == 2.5

    def test_mean_of_empty_is_nan(self):
        assert math.isnan(mean([]))
