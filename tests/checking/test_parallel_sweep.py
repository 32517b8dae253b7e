"""Parallel seed sweeps: jobs=N must reproduce jobs=1 exactly.

The scenarios are module-level (picklable) so the runner genuinely
dispatches to worker processes; outcomes — including repro bundles,
which replay — must come back identical and in seed order.
"""

import dataclasses

from repro.app.scenarios import BUILTIN_SCENARIOS
from repro.app.sweep import SeedSweepRunner, replay
from repro.checking.base import CheckerSuite, InvariantChecker
from repro.core.workloads import CUT_X
from repro.faults.plan import PartitionClause
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceLog
from tests.conftest import SuiteScenario

JOBS = 4

#: partition-crdt whose cut never heals: every seed violates.
NEVER_HEALS = dataclasses.replace(BUILTIN_SCENARIOS["partition-crdt"],
                                  faults=(PartitionClause(240.0, CUT_X),))


class _EvenSeedBreaker(InvariantChecker):
    """Deterministically violates on even seeds, twice, with detail."""

    name = "test.parallel"

    def __init__(self, seed: int) -> None:
        super().__init__()
        self.seed = seed

    def _setup(self) -> None:
        if self.seed % 2 == 0:
            self.sim.schedule(90.0, lambda: self.record(
                "even_seed", node=1, seed=self.seed, phase="early"))
            self.sim.schedule(150.0, lambda: self.record(
                "even_seed", node=2, seed=self.seed, phase="late"))


def breaker_scenario(seed: int) -> CheckerSuite:
    sim, trace = Simulator(seed=seed), TraceLog()
    suite = CheckerSuite(sim, trace)
    suite.add(_EvenSeedBreaker(seed))
    for t in (10.0, 120.0, 160.0, 190.0):
        sim.schedule(t, lambda t=t: trace.emit(
            sim.now, "tick", node=0, jitter=sim.rng.random()))
    sim.run(until=200.0)
    return suite


class TestParallelSeedSweep:
    def test_outcomes_identical_across_jobs_counts(self):
        seeds = [3, 4, 5, 6, 7, 8, 9, 10]
        serial = SeedSweepRunner("pp", SuiteScenario(breaker_scenario)).run(seeds, jobs=1)
        parallel = SeedSweepRunner("pp", SuiteScenario(breaker_scenario)).run(seeds,
                                                               jobs=JOBS)
        assert [o.seed for o in parallel] == seeds
        assert [o.clean for o in serial] == [o.clean for o in parallel]
        assert [o.violations for o in serial] == \
            [o.violations for o in parallel]

    def test_repro_bundles_identical_across_jobs_counts(self):
        seeds = [2, 4, 6]
        serial = SeedSweepRunner("pp", NEVER_HEALS).run(seeds, jobs=1)
        parallel = SeedSweepRunner("pp", NEVER_HEALS).run(seeds, jobs=JOBS)
        for one, other in zip(serial, parallel):
            assert one.bundle is not None and other.bundle is not None
            assert one.bundle == other.bundle
            assert one.bundle.summary() == other.bundle.summary()
        # A worker's bundle replays, in this process, to the serial
        # run's violations.
        assert replay(parallel[0].bundle).violations == serial[0].violations

    def test_parallel_sweep_over_closure_falls_back_serially(self):
        captured = []  # a closure: unpicklable, must degrade gracefully

        def scenario(seed: int) -> CheckerSuite:
            captured.append(seed)
            return breaker_scenario(seed)

        outcomes = SeedSweepRunner("cl", SuiteScenario(scenario)).run([3, 5, 7], jobs=JOBS)
        assert captured == [3, 5, 7]
        assert all(o.clean for o in outcomes)
