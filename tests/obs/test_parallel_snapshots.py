"""Metrics snapshots cross process boundaries: a sweep run with jobs=N
must merge to exactly the registry a jobs=1 sweep produces.

``_snapshot_trial`` is module-level because process pools move work
through pickle (same contract as tests/core/test_parallel.py).
"""

from repro.obs import Observability
from repro.obs.registry import MetricsSnapshot
from repro.parallel import TrialExecutor
from tests.conftest import build_line_network

JOBS = 4
SEEDS = [1, 2, 3, 4, 5, 6]


def _snapshot_trial(seed):
    """One instrumented scenario: converge a 3-node line, push one
    application datagram end to end, snapshot the registry."""
    sim, log, stacks = build_line_network(3, seed=seed)
    obs = Observability().attach(log)
    sim.run(until=300.0)
    stacks[-1].send_datagram(0, 7, payload="reading", payload_bytes=20)
    sim.run(until=sim.now + 30.0)
    return obs.registry.snapshot()


def merged(jobs):
    snapshots = TrialExecutor(jobs=jobs).map(
        _snapshot_trial, [(seed,) for seed in SEEDS])
    return MetricsSnapshot.merge(snapshots)


class TestParallelMerge:
    def test_jobs1_and_jobs4_merge_identically(self):
        serial, parallel = merged(jobs=1), merged(jobs=JOBS)
        assert serial == parallel
        assert serial.rows() == parallel.rows()

    def test_merged_snapshot_aggregates_every_trial(self):
        per_trial = [_snapshot_trial(seed) for seed in SEEDS]
        combined = MetricsSnapshot.merge(per_trial)
        assert combined.counter_total("net.sent") == sum(
            s.counter_total("net.sent") for s in per_trial)
        assert combined.counter_total("net.delivered") >= len(SEEDS)
        # Within each label set, samples concatenate in trial-index order.
        keys = sorted({key for s in per_trial for key in s.histograms
                       if key[0] == "net.latency_s"}, key=repr)
        expected = [v for key in keys for s in per_trial
                    for v in s.histograms.get(key, ())]
        assert combined.histogram_values("net.latency_s") == expected

    def test_snapshots_survive_the_pool_roundtrip_intact(self):
        local = _snapshot_trial(3)
        (shipped,) = TrialExecutor(jobs=2).map(_snapshot_trial, [(3,)])
        assert shipped == local
