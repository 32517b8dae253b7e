"""Key material and provisioning."""

from __future__ import annotations

from typing import Optional


class KeyStore:
    """Per-node key storage: the network-wide key.

    Keys are opaque integers — the simulator never does real crypto, it
    models *possession*: a tag computed under key K verifies only
    against the same K.
    """

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.network_key: Optional[int] = None

    def provision_network_key(self, key: int) -> None:
        """Install the network-wide key (commissioning step)."""
        self.network_key = key

    def key_for(self, peer: int) -> Optional[int]:
        """The key shared with ``peer``: the network key."""
        return self.network_key

    @property
    def provisioned(self) -> bool:
        return self.network_key is not None
