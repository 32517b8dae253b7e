"""Edge-inference partitioning model."""

import pytest

from repro.devices import inference
from repro.devices.inference import (
    InferencePartitioner,
    Layer,
    example_keyword_spotting_model,
)


def make_partitioner(**kwargs):
    layers, input_bytes = example_keyword_spotting_model()
    return InferencePartitioner(layers=layers, input_bytes=input_bytes,
                                **kwargs)


class TestLayer:
    def test_negative_costs_rejected(self):
        with pytest.raises(ValueError):
            Layer("bad", mac_ops=-1, output_bytes=0)


class TestPartitioner:
    def test_uplink_bytes_track_split(self):
        partitioner = make_partitioner()
        assert partitioner.uplink_bytes_at(0) == 8000  # raw offload
        assert partitioner.uplink_bytes_at(3) == 500
        assert partitioner.uplink_bytes_at(6) == 10  # classify locally
        with pytest.raises(ValueError):
            partitioner.uplink_bytes_at(7)

    def test_compute_grows_radio_shrinks(self):
        partitioner = make_partitioner()
        sweep = partitioner.sweep()
        computes = [c.compute_energy_j for c in sweep]
        radios = [c.radio_energy_j for c in sweep]
        assert computes == sorted(computes)
        assert radios == sorted(radios, reverse=True)

    def test_optimal_split_is_interior(self):
        # The paper's point: neither pure offload nor fully local wins.
        partitioner = make_partitioner()
        best = partitioner.best_split("energy")
        assert 0 < best.split_after < len(partitioner.layers)

    def test_energy_and_latency_objectives(self):
        partitioner = make_partitioner()
        by_energy = partitioner.best_split("energy")
        by_latency = partitioner.best_split("latency")
        sweep = partitioner.sweep()
        assert by_energy.total_energy_j == min(
            c.total_energy_j for c in sweep)
        assert by_latency.total_latency_s == min(
            c.total_latency_s for c in sweep)
        with pytest.raises(ValueError):
            partitioner.best_split("vibes")

    def test_slow_radio_pushes_split_deeper(self):
        # Over a heavily duty-cycled link (low effective throughput),
        # transmitting is costlier in time, so more layers run locally.
        fast = make_partitioner(effective_throughput_bps=250_000.0)
        slow = make_partitioner(effective_throughput_bps=2_000.0)
        assert (slow.best_split("latency").split_after
                >= fast.best_split("latency").split_after)

    def test_costly_cpu_pushes_split_earlier(self, monkeypatch):
        partitioner = make_partitioner()
        cheap = partitioner.best_split("energy").split_after
        monkeypatch.setattr(inference, "JOULES_PER_MAC", 1e-6)
        assert partitioner.best_split("energy").split_after < cheap

    def test_frame_overhead_charged(self):
        partitioner = make_partitioner()
        offload = partitioner.cost(0)
        # 8000 payload bytes -> ~89 frames of PHY overhead on the wire.
        assert offload.radio_energy_j > 0
        assert offload.uplink_bytes == 8000
