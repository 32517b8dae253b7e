"""Energy metering against known radio residencies."""

import pytest

from repro.devices.energy import EnergyMeter
from repro.devices.platform import CLASS_1_MOTE, CLASS_2_GATEWAY
from repro.radio.medium import Medium, Radio
from repro.radio.propagation import UnitDiskModel
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceLog


def make_radio(sim):
    medium = Medium(sim, UnitDiskModel(), TraceLog())
    return Radio(medium, 1, (0, 0))


class TestEnergyMeter:
    def test_pure_sleep_draws_sleep_current(self, sim):
        radio = make_radio(sim)
        meter = EnergyMeter(radio, CLASS_1_MOTE)
        meter.reset(sim.now)
        sim.run(until=3600.0)
        expected = 3600.0 * CLASS_1_MOTE.sleep_current_ma
        assert meter.charge_consumed_mas() == pytest.approx(expected)

    def test_listening_costs_rx_current(self, sim):
        radio = make_radio(sim)
        meter = EnergyMeter(radio, CLASS_1_MOTE)
        meter.reset(sim.now)
        radio.set_listening()
        sim.run(until=100.0)
        expected = 100.0 * CLASS_1_MOTE.rx_current_ma
        assert meter.charge_consumed_mas() == pytest.approx(expected)

    def test_average_current_over_window(self, sim):
        radio = make_radio(sim)
        meter = EnergyMeter(radio, CLASS_1_MOTE)
        meter.reset(sim.now)
        radio.set_listening()
        sim.schedule(10.0, radio.sleep)  # 10% duty cycle
        sim.run(until=100.0)
        average = meter.average_current_ma(sim.now)
        expected = 0.1 * CLASS_1_MOTE.rx_current_ma + 0.9 * CLASS_1_MOTE.sleep_current_ma
        assert average == pytest.approx(expected, rel=1e-6)

    def test_reset_starts_fresh_window(self, sim):
        radio = make_radio(sim)
        meter = EnergyMeter(radio, CLASS_1_MOTE)
        radio.set_listening()
        sim.run(until=50.0)
        meter.reset(sim.now)
        radio.sleep()
        sim.run(until=100.0)
        # Only the window's 50 s of sleep are charged.
        expected = 50.0 * CLASS_1_MOTE.sleep_current_ma
        assert meter.charge_consumed_mas() == pytest.approx(expected)

    def test_transmitting_costs_tx_current(self, sim):
        radio = make_radio(sim)
        meter = EnergyMeter(radio, CLASS_1_MOTE)
        meter.reset(sim.now)
        radio.set_listening()
        airtime = radio.transmit("x", 50)  # back to LISTEN afterwards
        sim.run(until=100.0)
        assert 0.0 < airtime < 100.0
        expected = (airtime * CLASS_1_MOTE.tx_current_ma
                    + (100.0 - airtime) * CLASS_1_MOTE.rx_current_ma)
        assert meter.charge_consumed_mas() == pytest.approx(expected)

    def test_reset_mid_state_charges_only_the_window(self, sim):
        radio = make_radio(sim)
        meter = EnergyMeter(radio, CLASS_1_MOTE)
        radio.set_listening()
        sim.run(until=30.0)
        # Still listening: the open residency up to now is the baseline.
        meter.reset(sim.now)
        sim.run(until=70.0)
        expected = 40.0 * CLASS_1_MOTE.rx_current_ma
        assert meter.charge_consumed_mas() == pytest.approx(expected)
        assert meter.average_current_ma(sim.now) == pytest.approx(
            CLASS_1_MOTE.rx_current_ma)

    def test_lifetime_projection(self, sim):
        radio = make_radio(sim)
        meter = EnergyMeter(radio, CLASS_1_MOTE)
        meter.reset(sim.now)
        sim.run(until=3600.0)  # pure sleep
        days = meter.projected_lifetime_days(sim.now)
        # 2600 mAh / 0.0051 mA ≈ 510k hours ≈ 21k days.
        assert days == pytest.approx(2600 / 0.0051 / 24.0, rel=1e-6)

    def test_mains_powered_lives_forever(self, sim):
        radio = make_radio(sim)
        meter = EnergyMeter(radio, CLASS_2_GATEWAY)
        meter.reset(sim.now)
        radio.set_listening()
        sim.run(until=3600.0)
        assert meter.projected_lifetime_days(sim.now) == float("inf")
