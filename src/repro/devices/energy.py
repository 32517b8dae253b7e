"""Radio-state energy accounting and battery lifetime projection.

The funnel-effect experiment (E4) and every lifetime claim rest on
this conversion: the radio records how long it spent in SLEEP / LISTEN /
TX; the meter multiplies residencies by the platform's current draws.
"""

from __future__ import annotations

from repro.devices.platform import PlatformProfile
from repro.radio.medium import Radio

#: An ideal battery's capacity (no self-discharge curve): two AA cells,
#: roughly.
BATTERY_CAPACITY_MAH = 2600.0


class EnergyMeter:
    """Converts one radio's state residencies into charge and energy.

    The meter is read-only with respect to the radio; call
    :meth:`charge_consumed_mas` at any simulated time.
    """

    def __init__(self, radio: Radio, platform: PlatformProfile) -> None:
        self.radio = radio
        self.platform = platform
        # Residencies at the last reset: SLEEP, LISTEN, TX seconds.
        self._sleep_s = self._listen_s = self._tx_s = 0.0
        self._start_time = 0.0

    def reset(self, now: float) -> None:
        """Start a fresh accounting window at simulated time ``now``."""
        radio = self.radio
        radio.flush_state_time()
        self._sleep_s, self._listen_s, self._tx_s = (
            radio.sleep_s, radio.listen_s, radio.tx_s)
        self._start_time = now

    def charge_consumed_mas(self) -> float:
        """Charge drawn since the last reset, in milliamp-seconds."""
        radio = self.radio
        radio.flush_state_time()
        platform = self.platform
        return (
            (radio.tx_s - self._tx_s) * platform.tx_current_ma
            + (radio.listen_s - self._listen_s) * platform.rx_current_ma
            + (radio.sleep_s - self._sleep_s) * platform.sleep_current_ma
        )

    def average_current_ma(self, now: float) -> float:
        """Mean current over the accounting window."""
        elapsed = now - self._start_time
        if elapsed <= 0:
            return 0.0
        return self.charge_consumed_mas() / elapsed

    def projected_lifetime_days(self, now: float) -> float:
        """Battery life extrapolated from the window's mean current.

        Mains-powered platforms report infinity — border routers do not
        die of battery, which is exactly why the funnel effect around
        them hurts the *battery-powered* nodes nearby.
        """
        if self.platform.mains_powered:
            return float("inf")
        current = self.average_current_ma(now)
        if current <= 0:
            return float("inf")
        return BATTERY_CAPACITY_MAH / current / 24.0
