"""NodeHealth telemetry: gauge coverage, rendering, and determinism.

The sampler *schedules events*, so it is opt-in (never auto-attached
by ``SystemConfig(observability=True)``); but once attached it must be
as deterministic as everything else — a health-sampled trial returns
byte-identical snapshots under jobs=1 and jobs=N.
"""

import pytest

from repro.core.system import IIoTSystem, SystemConfig
from repro.deployment.topology import grid_topology
from repro.devices.phenomena import DiurnalField
from repro.net.stack import StackConfig
from repro.obs.health import PERIOD_S, NodeHealthSampler, health_rows
from repro.parallel import TrialExecutor


def gauge(registry, name, **labels):
    """The gauge series' value; ``KeyError`` when nothing wrote it."""
    return registry.gauges[(name, tuple(sorted(labels.items())))]


def sampled_system(side=3, seed=42, duration_s=400.0):
    config = SystemConfig(stack=StackConfig(mac="csma"), observability=True)
    system = IIoTSystem.build(grid_topology(side), config=config, seed=seed)
    system.add_field_sensors("temp", DiurnalField(mean=20.0))
    system.start()
    sampler = NodeHealthSampler(system)
    sampler.start()
    system.run(duration_s)
    return system, sampler


def health_trial(side: int, seed: int) -> dict:
    """Module-level (picklable) trial: run, sample, return the snapshot
    in interchange form."""
    system, sampler = sampled_system(side=side, seed=seed)
    return system.obs.registry.snapshot().to_jsonable()


class TestSampling:
    def test_every_node_gets_the_full_gauge_set(self):
        system, sampler = sampled_system()
        registry = system.obs.registry
        for node_id in system.nodes:
            for name in ("health.alive", "health.duty_cycle",
                         "health.avg_current_ma", "health.mac_queue",
                         "health.neighbors", "health.rank", "health.parent"):
                assert gauge(registry, name, node=node_id) is not None, \
                    (name, node_id)
        assert gauge(registry, "health.samples") == sampler.samples_taken > 0

    def test_gauges_track_protocol_state(self):
        system, sampler = sampled_system()
        registry = system.obs.registry
        root_id = system.topology.root_id
        assert gauge(registry, "health.parent", node=root_id) == -1
        for node_id, node in system.nodes.items():
            assert gauge(registry, "health.alive", node=node_id) == 1
            assert gauge(registry, "health.rank", node=node_id) == \
                node.stack.rpl.rank
            assert 0.0 <= gauge(registry, "health.duty_cycle",
                                node=node_id) <= 1.0

    def test_health_rows_render_one_row_per_node(self):
        system, sampler = sampled_system()
        rows = health_rows(system.obs.registry.snapshot())
        assert [row["node"] for row in rows] == sorted(system.nodes)
        assert all("duty_cycle" in row and "rank" in row for row in rows)

    def test_stop_halts_sampling(self):
        system, sampler = sampled_system(duration_s=100.0)
        taken = sampler.samples_taken
        sampler.stop()
        system.run(200.0)
        assert sampler.samples_taken == taken

    def test_rejects_missing_observability(self):
        bare = IIoTSystem.build(grid_topology(2), seed=1)
        with pytest.raises(ValueError):
            NodeHealthSampler(bare)

    def test_samples_on_a_fixed_phase_without_drawing_rng(self):
        # RplRouter stale timers draw their phases from the shared
        # "periodic-timer" substream; the sampler must not take a draw.
        config = SystemConfig(stack=StackConfig(mac="csma"), observability=True)
        system = IIoTSystem.build(grid_topology(2), config=config, seed=1)
        stream = system.sim.substream("periodic-timer")
        state = stream.getstate()
        sampler = NodeHealthSampler(system)
        sampler.start()
        assert stream.getstate() == state
        system.run(3 * PERIOD_S)
        assert gauge(system.obs.registry, "health.sampled_at_s") == 3 * PERIOD_S
        assert sampler.samples_taken == 3


class TestDeterminism:
    def test_snapshots_identical_across_jobs_counts(self):
        argses = [(3, seed) for seed in (1, 2, 3, 4)]
        serial = TrialExecutor(1).map(health_trial, argses)
        parallel = TrialExecutor(4).map(health_trial, argses)
        assert serial == parallel
        assert len(serial) == 4
        # Different seeds genuinely produced different telemetry.
        assert serial[0] != serial[1]

    def test_same_seed_same_snapshot_in_process(self):
        assert health_trial(3, 7) == health_trial(3, 7)
