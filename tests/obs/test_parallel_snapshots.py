"""Metrics snapshots cross process boundaries: a sweep run with jobs=N
must return exactly the per-trial snapshots a jobs=1 sweep produces.

``_snapshot_trial`` is module-level because process pools move work
through pickle (same contract as tests/core/test_parallel.py).
"""

from repro.obs import Observability
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


def per_trial(jobs):
    return TrialExecutor(jobs=jobs).map(
        _snapshot_trial, [(seed,) for seed in SEEDS])


class TestParallelSnapshots:
    def test_jobs1_and_jobs4_return_identical_snapshots(self):
        serial, parallel = per_trial(jobs=1), per_trial(jobs=JOBS)
        assert serial == parallel
        assert [s.rows() for s in serial] == [s.rows() for s in parallel]
        assert all(s.counter_total("net.delivered") >= 1 for s in serial)

    def test_snapshots_survive_the_pool_roundtrip_intact(self):
        local = _snapshot_trial(3)
        (shipped,) = TrialExecutor(jobs=2).map(_snapshot_trial, [(3,)])
        assert shipped == local

    def test_each_trial_equals_its_seed_run_alone(self):
        parallel = per_trial(jobs=2)
        assert parallel == [_snapshot_trial(seed) for seed in SEEDS]

    def test_results_follow_the_argument_order(self):
        backwards = TrialExecutor(jobs=2).map(
            _snapshot_trial, [(seed,) for seed in reversed(SEEDS)])
        assert backwards == per_trial(jobs=1)[::-1]
