"""Comfort bands, occupancy, and violation accounting."""

import pytest

from repro.safety.comfort import ComfortBand, ComfortTracker, OccupancySchedule
from repro.sim.kernel import Simulator


class TestComfortBand:
    def test_violation_distance(self):
        band = ComfortBand(20.0, 23.0)
        assert band.violation_degrees(21.0) == 0.0
        assert band.violation_degrees(18.5) == pytest.approx(1.5)
        assert band.violation_degrees(25.0) == pytest.approx(2.0)

    def test_widened(self):
        band = ComfortBand(20.0, 23.0).widened(2.0)
        assert band.lower_c == 18.0
        assert band.upper_c == 25.0

    def test_inverted_band_rejected(self):
        with pytest.raises(ValueError):
            ComfortBand(25.0, 20.0)


class TestOccupancySchedule:
    def test_office_hours(self):
        schedule = OccupancySchedule([(8.0, 18.0, 6)])
        assert schedule.occupants(9 * 3600.0) == 6
        assert schedule.occupants(20 * 3600.0) == 0
        assert schedule.occupied(9 * 3600.0)
        assert not schedule.occupied(3 * 3600.0)

    def test_day_wraps(self):
        schedule = OccupancySchedule([(8.0, 18.0, 6)])
        tomorrow_nine = 24 * 3600.0 + 9 * 3600.0
        assert schedule.occupants(tomorrow_nine) == 6

    def test_overlapping_periods_sum(self):
        schedule = OccupancySchedule([(8.0, 18.0, 6), (12.0, 14.0, 4)])
        assert schedule.occupants(13 * 3600.0) == 10


class TestComfortTracker:
    def test_no_violation_inside_band(self, sim):
        tracker = ComfortTracker(
            sim, lambda: 21.0, ComfortBand(20.0, 23.0),
            OccupancySchedule([(0.0, 24.0, 1)]),
        )
        tracker.start()
        sim.run(until=3600.0)
        assert tracker.violation_degree_hours == 0.0
        assert tracker.occupied_hours == pytest.approx(1.0, abs=0.05)

    def test_violation_integrates_degree_hours(self, sim):
        tracker = ComfortTracker(
            sim, lambda: 18.0, ComfortBand(20.0, 23.0),
            OccupancySchedule([(0.0, 24.0, 1)]),
        )
        tracker.start()
        sim.run(until=3600.0)
        # 2 degrees below band for ~1 hour.
        assert tracker.violation_degree_hours == pytest.approx(2.0, abs=0.1)
        assert tracker.worst_violation_c == pytest.approx(2.0)
        assert tracker.occupied_hours == pytest.approx(1.0, abs=0.05)

    def test_empty_room_accrues_nothing(self, sim):
        tracker = ComfortTracker(
            sim, lambda: 10.0, ComfortBand(20.0, 23.0),
            OccupancySchedule([]),  # never occupied
        )
        tracker.start()
        sim.run(until=24 * 3600.0)
        assert tracker.violation_degree_hours == 0.0
        assert tracker.occupied_hours == 0.0
