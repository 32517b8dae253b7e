"""2.4 GHz channel plan arithmetic."""

import pytest

from repro.radio.channels import (
    IEEE802154_CHANNELS,
    WIFI_CHANNELS,
    ieee802154_center_mhz,
    ieee802154_channels_hit_by_wifi,
    wifi_center_mhz,
    wifi_overlaps_802154,
)


class TestChannelPlan:
    def test_channel_counts(self):
        assert len(IEEE802154_CHANNELS) == 16
        assert len(WIFI_CHANNELS) == 13

    def test_known_centers(self):
        assert ieee802154_center_mhz(11) == 2405.0
        assert ieee802154_center_mhz(26) == 2480.0
        assert wifi_center_mhz(1) == 2412.0
        assert wifi_center_mhz(6) == 2437.0

    def test_invalid_channels_rejected(self):
        with pytest.raises(ValueError):
            ieee802154_center_mhz(10)
        with pytest.raises(ValueError):
            wifi_center_mhz(0)

    def test_wifi6_blankets_middle_channels(self):
        hit = ieee802154_channels_hit_by_wifi(6)
        # Wi-Fi 6 is centered at 2437: 802.15.4 channels 16-19 fall inside.
        assert {16, 17, 18, 19} <= hit
        assert 26 not in hit

    def test_each_wifi_channel_hits_about_four(self):
        for wifi in WIFI_CHANNELS:
            assert 3 <= len(ieee802154_channels_hit_by_wifi(wifi)) <= 5

    def test_classic_survivor_set(self):
        # With Wi-Fi 1/6/11 active, the textbook clear channels remain.
        hit = set().union(*(ieee802154_channels_hit_by_wifi(wifi)
                            for wifi in (1, 6, 11)))
        assert set(IEEE802154_CHANNELS) - hit == {15, 20, 25, 26}

    def test_overlap_is_symmetric_in_distance(self):
        assert wifi_overlaps_802154(1, 11)
        assert not wifi_overlaps_802154(1, 26)
