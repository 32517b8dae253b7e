"""SeedSweepRunner: clean sweeps, repro bundles, failure reporting."""

import pytest

from repro.checking.base import CheckerSuite, InvariantChecker
from repro.checking.sweep import (
    InvariantViolationError,
    ReproBundle,
    SeedSweepRunner,
)
from repro.core.experiment import seeds_for
from repro.sim.kernel import Simulator
from repro.sim.trace import TAIL, TraceLog


class AlwaysCleanChecker(InvariantChecker):
    name = "test.clean"


class FailsOnEvenSeeds(InvariantChecker):
    """Records one violation at t=150 when its seed is even."""

    name = "test.even"

    def __init__(self, seed: int) -> None:
        super().__init__()
        self.seed = seed

    def _setup(self) -> None:
        if self.seed % 2 == 0:
            self.sim.schedule(150.0, lambda: self.record(
                "even_seed", node=1, seed=self.seed))


def clean_scenario(seed: int) -> CheckerSuite:
    sim, trace = Simulator(seed=seed), TraceLog()
    suite = CheckerSuite(sim, trace)
    suite.add(AlwaysCleanChecker())
    trace.emit(0.0, "setup", node=0)
    sim.run(until=200.0)
    return suite


def parity_scenario(seed: int) -> CheckerSuite:
    sim, trace = Simulator(seed=seed), TraceLog(enabled=True)
    suite = CheckerSuite(sim, trace)
    suite.add(FailsOnEvenSeeds(seed))
    trace.emit(10.0, "early", node=0)
    trace.emit(140.0, "late", node=0)
    trace.emit(160.0, "aftermath", node=0)
    sim.run(until=200.0)
    return suite


def instrumented_parity_scenario(seed: int) -> CheckerSuite:
    """parity_scenario with span tracing attached: one packet lifecycle
    inside the violation window, one long before it."""
    from repro.obs import Observability

    sim, trace = Simulator(seed=seed), TraceLog()
    obs = Observability().attach(trace)
    suite = CheckerSuite(sim, trace)
    suite.add(FailsOnEvenSeeds(seed))
    old = obs.spans.start(None, "net.datagram", node=0, t=5.0, dst=1)
    obs.spans.finish(old, 6.0, delivered=True)
    recent = obs.spans.start(None, "net.datagram", node=0, t=145.0, dst=1)
    obs.spans.event(recent, "radio.rx", node=1, t=145.2)
    obs.spans.finish(recent, 145.2, delivered=True)
    sim.run(until=200.0)
    return suite


class TestSeedSweepRunner:
    def test_clean_sweep_returns_all_outcomes(self):
        runner = SeedSweepRunner("clean", clean_scenario)
        outcomes = runner.sweep(5)
        assert len(outcomes) == 5
        assert all(o.clean for o in outcomes)
        assert all(o.bundle is None for o in outcomes)
        assert [o.seed for o in outcomes] == seeds_for(1, 5)

    def test_explicit_seed_list(self):
        runner = SeedSweepRunner("clean", clean_scenario)
        outcomes = runner.run([3, 8, 21])
        assert [o.seed for o in outcomes] == [3, 8, 21]

    def test_failing_seed_produces_a_repro_bundle(self):
        runner = SeedSweepRunner("parity", parity_scenario,
                                 trace_window_s=120.0)
        outcome = runner.run_seed(4)
        assert not outcome.clean
        bundle = outcome.bundle
        assert isinstance(bundle, ReproBundle)
        assert bundle.scenario == "parity"
        assert bundle.seed == 4
        assert [v.invariant for v in bundle.violations] == ["even_seed"]

    def test_bundle_trace_tail_covers_the_window_and_the_violation(self):
        runner = SeedSweepRunner("parity", parity_scenario,
                                 trace_window_s=120.0)
        bundle = runner.run_seed(4).bundle
        # Run ends at t=200, window 120 -> records from t>=80... but the
        # window is widened to include the first violation (t=150).
        times = [r.time for r in bundle.trace_tail]
        assert 140.0 in times
        assert 10.0 not in times

    def test_window_stretches_back_to_the_first_violation(self):
        runner = SeedSweepRunner("parity", parity_scenario,
                                 trace_window_s=1.0)
        bundle = runner.run_seed(4).bundle
        # Even a tiny window must keep everything from the violation on:
        # start = min(now - window, first violation time) = 150.
        assert [r.time for r in bundle.trace_tail] == [160.0]

    def test_tail_of_a_long_run_ends_at_the_last_record(self):
        def long_scenario(seed: int) -> CheckerSuite:
            suite = parity_scenario(seed)
            for seq in range(TAIL + 100):
                suite.trace.emit(170.0 + seq * 1e-3, "tick", node=0, seq=seq)
            return suite

        bundle = SeedSweepRunner("long", long_scenario).run_seed(4).bundle
        tail = bundle.trace_tail
        # Everything is inside the window; the ring kept the newest TAIL.
        assert len(tail) == TAIL
        assert tail[-1].data["seq"] == TAIL + 99
        assert tail[0].data["seq"] == 100

    def test_clean_seed_in_failing_scenario_passes(self):
        runner = SeedSweepRunner("parity", parity_scenario)
        assert runner.run_seed(3).clean

    def test_assert_clean_raises_with_summary(self):
        runner = SeedSweepRunner("parity", parity_scenario)
        outcomes = runner.run([3, 4, 5])
        with pytest.raises(InvariantViolationError) as err:
            runner.assert_clean(outcomes)
        assert err.value.bundle.seed == 4
        message = str(err.value)
        assert "scenario='parity' seed=4" in message
        assert "even_seed" in message
        assert "repro" in message

    def test_bundle_attaches_span_trees_from_the_violation_window(self):
        runner = SeedSweepRunner("parity", instrumented_parity_scenario,
                                 trace_window_s=120.0)
        bundle = runner.run_seed(4).bundle
        # Only the lifecycle overlapping [80, 200] is bundled; the t=5
        # datagram predates the window.
        assert len(bundle.span_trees) == 1
        tree = bundle.span_trees[0]
        assert "net.datagram" in tree
        assert "radio.rx" in tree
        assert "t=5.0000" not in tree
        summary = bundle.summary()
        assert "packet lifecycles in the violation window" in summary
        assert "net.datagram" in summary

    def test_bundle_span_trees_are_capped(self):
        def busy_scenario(seed: int) -> CheckerSuite:
            suite = instrumented_parity_scenario(seed)
            spans = suite.trace.obs.spans
            for i in range(6):
                ctx = spans.start(None, "net.datagram", node=i, t=150.0 + i)
                spans.finish(ctx, 151.0 + i)
            return suite

        bundle = SeedSweepRunner("busy", busy_scenario).run_seed(4).bundle
        assert len(bundle.span_trees) == SeedSweepRunner.MAX_BUNDLE_TRACES

    def test_uninstrumented_scenario_bundles_no_trees(self):
        runner = SeedSweepRunner("parity", parity_scenario)
        bundle = runner.run_seed(4).bundle
        assert bundle.span_trees == []
        assert "packet lifecycles" not in bundle.summary()

    @pytest.mark.parametrize("name, clause", [
        ("partition-crdt", "partition @ t=240s  cut_x=30.0, heal_after_s=120.0"),
        ("rnfd-root-failure", "crash @ t=250s  node=-1, recover_after_s=300.0"),
    ])
    def test_builtin_bundle_carries_its_fault_plan(self, name, clause):
        from repro.checking.scenarios import BUILTIN_SCENARIOS

        def failing(seed: int) -> CheckerSuite:
            suite = BUILTIN_SCENARIOS[name](seed)
            assert len(suite.trace.fault_plan) == 1
            suite.checkers[0].record("synthetic")
            return suite

        bundle = SeedSweepRunner(name, failing).run_seed(1).bundle
        assert bundle.fault_plan is not None
        summary = bundle.summary()
        assert "fault plan (1 clause(s)):" in summary
        assert clause in summary

    def test_summary_truncates_long_listings(self):
        suite = clean_scenario(1)
        checker = suite.checkers[0]
        records = [checker.record(f"v{i}", node=i) for i in range(15)]
        bundle = ReproBundle("big", 1, records, [])
        text = bundle.summary(max_violations=10)
        assert "... 5 more" in text
