"""Edge-inference partitioning (paper §IV-B, refs [19], [20]).

The paper's closing size-scalability example: "migrating parts of deep
neural networks to low-power devices to exploit the tradeoff between
communication and computation".  DeepX-style systems split a network at
a layer boundary: the device computes the first *k* layers and ships the
layer-k activation; the gateway finishes the rest.

This module models that decision for a Class-1 device: per-layer compute
cost (multiply-accumulates) against the platform's CPU energy, and the
activation size against radio airtime and energy.  The canonical shape —
early layers are cheap but produce *huge* activations, late layers are
expensive but tiny — makes the optimal split an interior point, which
experiment E14 sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.devices.platform import CLASS_1_MOTE
from repro.radio.medium import BITRATE_BPS, PHY_OVERHEAD_BYTES

# The device the partitioner prices, read at each evaluation (a test
# patches them).
#: Its platform: a Class-1 mote.
PLATFORM = CLASS_1_MOTE
#: Energy per multiply-accumulate on a Class-1 MCU, joules.  Software
#: fixed-point MAC at ~8 cycles: 8 / 8 MHz * 1.8 mA * 3 V ≈ 5.4 nJ.
JOULES_PER_MAC = 5.4e-9
#: MAC operations per second the MCU sustains (8 MHz / ~8 cycles).
MACS_PER_SECOND = 1.0e6


@dataclass(frozen=True)
class Layer:
    """One network layer as the partitioner sees it."""

    name: str
    #: Multiply-accumulate operations to evaluate the layer.
    mac_ops: float
    #: Bytes of the layer's output activation.
    output_bytes: int

    def __post_init__(self) -> None:
        if self.mac_ops < 0 or self.output_bytes < 0:
            raise ValueError("layer costs must be non-negative")


@dataclass(frozen=True)
class PartitionCost:
    """The price of one split point."""

    split_after: int  # layers [0, split) run on-device
    compute_energy_j: float
    radio_energy_j: float
    compute_latency_s: float
    radio_latency_s: float
    uplink_bytes: int

    @property
    def total_energy_j(self) -> float:
        return self.compute_energy_j + self.radio_energy_j

    @property
    def total_latency_s(self) -> float:
        return self.compute_latency_s + self.radio_latency_s


@dataclass(frozen=True)
class InferencePartitioner:
    """Evaluates split points of a layered model on a ``PLATFORM`` device.

    ``input_bytes`` is what split 0 (pure offload) must transmit — the
    raw sample.  ``effective_throughput_bps`` defaults to the raw PHY
    rate; pass a duty-cycled estimate (e.g. from
    :class:`repro.net.mac.analysis.LplExpectations`) for deployment-
    accurate latency.
    """

    layers: Tuple[Layer, ...]
    input_bytes: int
    effective_throughput_bps: float = float(BITRATE_BPS)

    def _radio_j_per_byte(self) -> float:
        """Radio energy per transmitted byte (TX current at the PHY
        rate)."""
        byte_airtime = 8.0 / BITRATE_BPS
        return (byte_airtime * PLATFORM.tx_current_ma / 1000.0
                * PLATFORM.supply_voltage_v)

    def uplink_bytes_at(self, split_after: int) -> int:
        """Bytes transmitted when the first ``split_after`` layers run
        on-device."""
        if not 0 <= split_after <= len(self.layers):
            raise ValueError("split point out of range")
        if split_after == 0:
            return self.input_bytes
        return self.layers[split_after - 1].output_bytes

    def cost(self, split_after: int) -> PartitionCost:
        """Full device-side cost of one split point."""
        local = self.layers[:split_after]
        macs = sum(layer.mac_ops for layer in local)
        payload = self.uplink_bytes_at(split_after)
        # Frame overhead per fragment-sized unit.
        frame_payload = 90
        frames = max(1, -(-payload // frame_payload))
        wire_bytes = payload + frames * PHY_OVERHEAD_BYTES
        return PartitionCost(
            split_after=split_after,
            compute_energy_j=macs * JOULES_PER_MAC,
            radio_energy_j=wire_bytes * self._radio_j_per_byte(),
            compute_latency_s=macs / MACS_PER_SECOND,
            radio_latency_s=wire_bytes * 8.0 / self.effective_throughput_bps,
            uplink_bytes=payload,
        )

    def sweep(self) -> List[PartitionCost]:
        """Costs for every split point, 0 (offload all) .. N (all local)."""
        return [self.cost(k) for k in range(len(self.layers) + 1)]

    def best_split(self, objective: str = "energy") -> PartitionCost:
        """The split minimizing total energy or latency."""
        key = {
            "energy": lambda c: c.total_energy_j,
            "latency": lambda c: c.total_latency_s,
        }.get(objective)
        if key is None:
            raise ValueError("objective must be 'energy' or 'latency'")
        return min(self.sweep(), key=key)


def example_keyword_spotting_model() -> Tuple[Tuple[Layer, ...], int]:
    """A small audio-event CNN with the canonical taper.

    Raw input: 1 s of 16-bit audio at 4 kHz = 8000 bytes.  Early conv
    layers shrink the activation fast; the dense tail is compute-heavy
    but emits a 10-byte class vector.
    """
    layers = (
        Layer("conv1", mac_ops=6.0e5, output_bytes=4000),
        Layer("pool1", mac_ops=2.0e4, output_bytes=1000),
        Layer("conv2", mac_ops=8.0e5, output_bytes=500),
        Layer("pool2", mac_ops=1.0e4, output_bytes=120),
        Layer("dense1", mac_ops=1.2e6, output_bytes=32),
        Layer("dense2", mac_ops=3.0e5, output_bytes=10),
    )
    return layers, 8000
