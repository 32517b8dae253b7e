"""Comfort-envelope checker: excursions only inside fault windows."""

import pytest

from repro.checking import safety
from repro.checking.safety import ComfortEnvelopeChecker
from repro.safety.comfort import ComfortBand
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceLog

BAND = ComfortBand(lower_c=20.0, upper_c=24.0)


@pytest.fixture(autouse=True)
def _sample_every_10_s(monkeypatch):
    monkeypatch.setattr(safety, "PERIOD_S", 10.0)


def _attach(checker):
    sim, trace = Simulator(seed=9), TraceLog()
    checker.attach(sim, trace)
    return sim, trace


class TestComfortCheckerClean:
    def test_in_band_temperature_is_clean(self):
        checker = ComfortEnvelopeChecker()
        sim, _trace = _attach(checker)
        checker.watch("office", lambda: 22.0, BAND, node=3)
        sim.run(until=100.0)
        assert checker.samples == 10
        assert checker.clean

    def test_small_overshoot_within_margin_is_clean(self):
        checker = ComfortEnvelopeChecker(margin_c=0.5)
        sim, _trace = _attach(checker)
        checker.watch("office", lambda: 24.4, BAND)
        sim.run(until=50.0)
        assert checker.clean

    def test_excursion_inside_declared_fault_window_is_expected(self):
        checker = ComfortEnvelopeChecker()
        sim, _trace = _attach(checker)
        temp = {"c": 22.0}
        checker.watch("office", lambda: temp["c"], BAND)
        checker.declare_fault_window(40.0, 80.0, grace_s=20.0)
        sim.schedule(45.0, lambda: temp.update(c=15.0))   # during fault
        sim.schedule(95.0, lambda: temp.update(c=22.0))   # healed in grace
        sim.run(until=150.0)
        assert checker.clean, [str(v) for v in checker.violations]

    def test_settle_time_suppresses_startup_excursions(self):
        checker = ComfortEnvelopeChecker(settle_s=60.0)
        sim, _trace = _attach(checker)
        temp = {"c": 10.0}  # cold start, far out of band
        checker.watch("office", lambda: temp["c"], BAND)
        sim.schedule(55.0, lambda: temp.update(c=22.0))
        sim.run(until=120.0)
        assert checker.clean


class TestComfortCheckerFiring:
    def test_excursion_outside_fault_window_is_flagged(self):
        checker = ComfortEnvelopeChecker()
        sim, _trace = _attach(checker)
        checker.watch("office", lambda: 15.0, BAND, node=3)
        checker.declare_fault_window(200.0, 300.0)
        sim.run(until=30.0)
        assert checker.violations
        violation = checker.violations[0]
        assert violation.invariant == "comfort_envelope_breach"
        assert violation.node == 3
        assert violation.detail["zone"] == "office"
        assert violation.detail["excursion_c"] == 5.0

    def test_excursion_after_grace_expires_is_flagged(self):
        checker = ComfortEnvelopeChecker()
        sim, _trace = _attach(checker)
        checker.watch("office", lambda: 30.0, BAND)
        checker.declare_fault_window(0.0, 20.0, grace_s=10.0)
        sim.run(until=50.0)
        # Samples at 10, 20, 30 are covered; 40 and 50 are not.
        assert len(checker.violations) == 2

    def test_watch_zone_reads_hvac_shaped_objects(self):
        class _Zone:
            temperature_c = 12.0

        class _Node:
            node_id = 6

        class _HvacZone:
            name = "lab"
            zone = _Zone()
            band = BAND
            node = _Node()

        checker = ComfortEnvelopeChecker()
        sim, _trace = _attach(checker)
        checker.watch_zone(_HvacZone())
        sim.run(until=10.0)
        assert checker.violations[0].node == 6
        assert checker.violations[0].detail["zone"] == "lab"
