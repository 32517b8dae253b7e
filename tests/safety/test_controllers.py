"""Control policies and the revenue model."""

import pytest

from repro.safety import controllers, revenue
from repro.safety.comfort import ComfortBand, OccupancySchedule
from repro.safety.controllers import BangBangController, SetbackController
from repro.safety.revenue import RevenueModel


BAND = ComfortBand(20.0, 23.0)


class TestBangBang:
    def test_heats_below_band(self):
        controller = BangBangController(BAND)
        heat, cool = controller.control(18.0, 0.0)
        assert (heat, cool) == (1.0, 0.0)

    def test_cools_above_band(self):
        controller = BangBangController(BAND)
        heat, cool = controller.control(25.0, 0.0)
        assert (heat, cool) == (0.0, 1.0)

    def test_idle_inside_band(self):
        controller = BangBangController(BAND)
        assert controller.control(21.5, 0.0) == (0.0, 0.0)

    def test_hysteresis_keeps_heating_past_edge(self):
        controller = BangBangController(BAND)
        controller.control(19.0, 0.0)          # heating on
        heat, _ = controller.control(20.2, 0.0)  # inside hysteresis window
        assert heat == 1.0
        heat, _ = controller.control(20.6, 0.0)  # past it
        assert heat == 0.0

    def test_hysteresis_is_read_at_each_decision(self, monkeypatch):
        controller = BangBangController(BAND)
        controller.control(19.0, 0.0)          # heating on
        monkeypatch.setattr(controllers, "HYSTERESIS_C", 1.0)
        heat, _ = controller.control(20.6, 0.0)  # inside the wider window
        assert heat == 1.0


class TestSetback:
    def test_strict_when_occupied(self):
        schedule = OccupancySchedule([(8.0, 18.0, 5)])
        controller = SetbackController(BAND, schedule, setback_margin_c=4.0)
        heat, _ = controller.control(18.0, 9 * 3600.0)
        assert heat == 1.0

    def test_relaxed_when_empty(self):
        schedule = OccupancySchedule([(8.0, 18.0, 5)])
        controller = SetbackController(BAND, schedule, setback_margin_c=4.0)
        # 18 C violates the strict band but not the widened one (16-27).
        heat, _ = controller.control(18.0, 2 * 3600.0)
        assert heat == 0.0

    def test_warmup_lead_preheats(self):
        schedule = OccupancySchedule([(8.0, 18.0, 5)])
        controller = SetbackController(BAND, schedule)
        heat, _ = controller.control(18.0, 7.5 * 3600.0)  # 07:30
        assert heat == 1.0

    def test_warmup_lead_is_read_at_each_decision(self, monkeypatch):
        schedule = OccupancySchedule([(8.0, 18.0, 5)])
        controller = SetbackController(BAND, schedule)
        monkeypatch.setattr(controllers, "WARMUP_LEAD_S", 600.0)
        heat, _ = controller.control(18.0, 7.5 * 3600.0)  # 07:30: relaxed
        assert heat == 0.0

    def test_both_bands_share_the_hysteresis(self, monkeypatch):
        schedule = OccupancySchedule([(8.0, 18.0, 5)])
        controller = SetbackController(BAND, schedule, setback_margin_c=4.0)
        controller.control(15.0, 2 * 3600.0)   # relaxed band 16-27: heat
        monkeypatch.setattr(controllers, "HYSTERESIS_C", 1.0)
        heat, _ = controller.control(16.8, 2 * 3600.0)
        assert heat == 1.0


class TestRevenue:
    def test_statement_arithmetic(self):
        model = RevenueModel(base_fee_per_day=10.0,
                             energy_price_per_kwh=0.5,
                             comfort_penalty_per_degree_hour=2.0)
        statement = model.statement(days=2.0, energy_kwh=10.0,
                                    violation_degree_hours=1.5,
                                    worst_violation_c=1.0)
        assert statement.gross == 20.0
        assert statement.energy_cost == 5.0
        assert statement.comfort_penalty == 3.0
        assert statement.breach_penalty == 0.0
        assert statement.net == 12.0
        assert statement.net_per_day == 6.0

    def test_sla_breach_penalty(self):
        model = RevenueModel(sla_breach_penalty=50.0)
        statement = model.statement(1.0, 0.0, 0.0, worst_violation_c=4.0)
        assert statement.breach_penalty == 50.0
        assert model.statement(1.0, 0.0, 0.0, 3.0).breach_penalty == 0.0

    def test_sla_breach_depth_is_read_when_priced(self, monkeypatch):
        model = RevenueModel(sla_breach_penalty=50.0)
        monkeypatch.setattr(revenue, "SLA_BREACH_C", 5.0)
        assert model.statement(1.0, 0.0, 0.0, 4.0).breach_penalty == 0.0

    def test_zero_days_rejected(self):
        with pytest.raises(ValueError):
            RevenueModel().statement(0.0, 0.0, 0.0, 0.0)
