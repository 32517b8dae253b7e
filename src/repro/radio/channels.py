"""The 2.4 GHz ISM channel plan.

IEEE 802.15.4 defines sixteen 2 MHz channels (11–26) spaced 5 MHz apart
starting at 2405 MHz.  Wi-Fi (802.11b/g/n) channels are 22 MHz wide,
spaced 5 MHz apart starting at 2412 MHz; each Wi-Fi channel therefore
blankets roughly four 802.15.4 channels.  The administrative-scalability
experiments (paper §IV-C, refs [35], [36]) need exactly this overlap
structure: co-located tenants contend for the same spectrum.
"""

from __future__ import annotations

from typing import FrozenSet, Tuple

#: Valid IEEE 802.15.4 2.4 GHz channel numbers.
IEEE802154_CHANNELS: Tuple[int, ...] = tuple(range(11, 27))

#: Valid Wi-Fi 2.4 GHz channel numbers (1–13; 14 is Japan-only, omitted).
WIFI_CHANNELS: Tuple[int, ...] = tuple(range(1, 14))

#: The three canonical non-overlapping Wi-Fi channels.
WIFI_NON_OVERLAPPING: Tuple[int, ...] = (1, 6, 11)


def ieee802154_center_mhz(channel: int) -> float:
    """Center frequency of an 802.15.4 channel in MHz."""
    if channel not in IEEE802154_CHANNELS:
        raise ValueError(f"invalid 802.15.4 channel {channel}")
    return 2405.0 + 5.0 * (channel - 11)


def wifi_center_mhz(channel: int) -> float:
    """Center frequency of a 2.4 GHz Wi-Fi channel in MHz."""
    if channel not in WIFI_CHANNELS:
        raise ValueError(f"invalid Wi-Fi channel {channel}")
    return 2412.0 + 5.0 * (channel - 1)


def wifi_overlaps_802154(wifi_channel: int, ieee_channel: int) -> bool:
    """True when the Wi-Fi channel's 22 MHz mask covers the 2 MHz
    802.15.4 channel."""
    wifi_center = wifi_center_mhz(wifi_channel)
    ieee_center = ieee802154_center_mhz(ieee_channel)
    # Half-widths: Wi-Fi 11 MHz, 802.15.4 1 MHz.
    return abs(wifi_center - ieee_center) < 11.0 + 1.0


def ieee802154_channels_hit_by_wifi(wifi_channel: int) -> FrozenSet[int]:
    """The set of 802.15.4 channels degraded by a given Wi-Fi channel."""
    return frozenset(
        ch for ch in IEEE802154_CHANNELS if wifi_overlaps_802154(wifi_channel, ch)
    )
