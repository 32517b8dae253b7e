"""SeedSweepRunner: clean sweeps, repro bundles, failure reporting, replay."""

import dataclasses
from dataclasses import dataclass
from typing import ClassVar

import pytest

from repro.__main__ import main
from repro.app.scenarios import BUILTIN_SCENARIOS
from repro.app.sweep import (
    WINDOW_S,
    InvariantViolationError,
    ReproBundle,
    SeedSweepRunner,
    _Window,
    replay,
)
from repro.checking.base import CheckerSuite, InvariantChecker
from repro.core.experiment import seeds_for
from repro.core.workloads import CUT_X, WORKLOADS, Driver, Workload
from repro.faults.plan import PartitionClause
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceLog, TraceRecord
from tests.conftest import SuiteScenario, TraceRecorder


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
    sim, trace = Simulator(seed=seed), TraceLog()
    suite = CheckerSuite(sim, trace)
    suite.add(FailsOnEvenSeeds(seed))
    sim.run(until=200.0)
    return suite


class TestSeedSweepRunner:
    def test_clean_sweep_returns_all_outcomes(self):
        runner = SeedSweepRunner("clean", SuiteScenario(clean_scenario))
        outcomes = runner.sweep(5)
        assert len(outcomes) == 5
        assert all(o.clean for o in outcomes)
        assert all(o.bundle is None for o in outcomes)
        assert [o.seed for o in outcomes] == seeds_for(1, 5)

    def test_explicit_seed_list(self):
        runner = SeedSweepRunner("clean", SuiteScenario(clean_scenario))
        outcomes = runner.run([3, 8, 21])
        assert [o.seed for o in outcomes] == [3, 8, 21]

    def test_failing_seed_produces_a_repro_bundle(self):
        runner = SeedSweepRunner("parity", SuiteScenario(parity_scenario))
        outcome = runner.run_seed(4)
        assert not outcome.clean
        bundle = outcome.bundle
        assert isinstance(bundle, ReproBundle)
        assert bundle.name == "parity"
        assert bundle.seed == 4
        assert [v.invariant for v in bundle.violations] == ["even_seed"]

    def test_clean_seed_in_failing_scenario_passes(self):
        runner = SeedSweepRunner("parity", SuiteScenario(parity_scenario))
        assert runner.run_seed(3).clean

    def test_assert_clean_raises_with_summary(self):
        runner = SeedSweepRunner("parity", SuiteScenario(parity_scenario))
        outcomes = runner.run([3, 4, 5])
        with pytest.raises(InvariantViolationError) as err:
            runner.assert_clean(outcomes)
        assert err.value.bundle.seed == 4
        message = str(err.value)
        assert "scenario='parity' seed=4" in message
        assert "even_seed" in message
        # Not a builtin: the bundle replays through the library.
        assert message.splitlines()[-1] == \
            "  repro: repro.app.sweep.replay(bundle)"

    @pytest.mark.parametrize("name, clause", [
        ("partition-crdt", "partition @ t=240s  cut_x=30.0, heal_after_s=120.0"),
        ("rnfd-root-failure", "crash @ t=250s  node=-1, recover_after_s=300.0"),
    ])
    def test_builtin_bundle_carries_its_fault_plan(self, name, clause):
        from repro.app.scenarios import BUILTIN_SCENARIOS
        from repro.core.scenario import content_hash

        scenario = BUILTIN_SCENARIOS[name]

        def failing(seed: int) -> CheckerSuite:
            suite = scenario.run(seed).checkers
            suite.checkers[0].record("synthetic")
            return suite

        bundle = SeedSweepRunner(
            name, SuiteScenario(failing, scenario.to_jsonable())).run_seed(1).bundle
        assert bundle.scenario == scenario.to_jsonable()
        summary = bundle.summary()
        assert f"scenario sha256={content_hash(bundle.scenario)}" in summary
        assert "fault plan (1 clause(s)):" in summary
        assert clause in summary
        assert summary.splitlines()[-1] == \
            f"  repro: python -m repro replay --scenario {name} --seed 1"
        # A builtin's name on another scenario is not that builtin.
        renamed = dataclasses.replace(bundle, scenario=NEVER_HEALS.to_jsonable())
        assert renamed.summary().splitlines()[-1] == \
            "  repro: repro.app.sweep.replay(bundle)"

    def test_summary_truncates_long_listings(self):
        suite = clean_scenario(1)
        checker = suite.checkers[0]
        records = [checker.record(f"v{i}", node=i) for i in range(15)]
        bundle = ReproBundle("big", 1, records)
        text = bundle.summary(max_violations=10)
        assert "... 5 more" in text


# ----------------------------------------------------------------------
# replay
# ----------------------------------------------------------------------
class _PlantDriver(Driver):
    def formed(self) -> None:
        checker = self.system.checkers.checkers[0]
        self.system.sim.schedule_at(self.workload.at_s,
                                    lambda: checker.record("planted"))


@dataclass(frozen=True)
class PlantViolation(Workload):
    """Records one violation at ``at_s``, mid-run (test-only: a test
    that replays it registers it in ``WORKLOADS``)."""

    kind: ClassVar[str] = "plant-violation"
    driver: ClassVar[type] = _PlantDriver
    at_s: float = 0.0


#: partition-crdt whose cut never heals: the replicas diverge, which the
#: CRDT checker reports at the end of the run (t=600).
NEVER_HEALS = dataclasses.replace(BUILTIN_SCENARIOS["partition-crdt"],
                                  faults=(PartitionClause(240.0, CUT_X),))


def bundle_of(scenario, seed=1):
    """What a sweep of ``scenario`` would bundle (its violations aside:
    replay does not read them)."""
    return ReproBundle("planted", seed, [], scenario.to_jsonable())


def replayed_with_stream(scenario, seed=1):
    """``replay`` and the whole trace stream of that very run."""
    with TraceRecorder() as recorder:
        result = replay(bundle_of(scenario, seed))
    (log,) = recorder._streams
    return result, recorder(log)


def window_of(stream, t0):
    """The records with ``t0 - WINDOW_S <= time <= t0``, checked to be
    one contiguous run of ``stream``."""
    hits = [i for i, r in enumerate(stream) if t0 - WINDOW_S <= r.time <= t0]
    assert hits == list(range(hits[0], hits[-1] + 1))
    return stream[hits[0]:hits[-1] + 1]


class TestReplay:
    def test_records_are_the_window_of_the_whole_stream(self):
        result, stream = replayed_with_stream(NEVER_HEALS)
        t0 = result.violations[0].time
        assert t0 == NEVER_HEALS.formation_s + NEVER_HEALS.run_s
        assert result.records == window_of(stream, t0)
        # The window is not the whole run, and it is printed whole.
        assert len(stream) > len(result.records) > 0
        text = result.render()
        assert f"({len(result.records)} record(s)):" in text
        for record in (result.records[0], result.records[-1]):
            assert (f"  t={record.time:.3f} {record.category} "
                    f"node={record.node} {record.data}") in text

    def test_window_freezes_at_a_mid_run_violation(self, monkeypatch):
        monkeypatch.setitem(WORKLOADS, PlantViolation.kind, PlantViolation)
        scenario = dataclasses.replace(
            NEVER_HEALS, faults=(),
            workloads=NEVER_HEALS.workloads + (PlantViolation(300.0),))
        swept = scenario.run(1).checkers.finish()
        result, stream = replayed_with_stream(scenario)
        assert result.violations == swept
        assert result.violations[0].time == 300.0
        assert result.records == window_of(stream, 300.0)
        assert stream[-1].time > 300.0

    def test_the_buffer_holds_the_window_not_the_run(self):
        suite = clean_scenario(1)
        window = _Window(suite)
        longest = 0
        for step in range(6000):  # one record per 0.1 s for 600 s
            window(TraceRecord(step / 10.0, "tick", 0))
            longest = max(longest, len(window.records))
        assert longest == 10 * WINDOW_S + 1
        # A violation freezes it: nothing later is kept, nothing dropped.
        suite.sim.run(until=600.0)
        suite.checkers[0].record("late")
        for time in (600.0, 600.1, 800.0):
            window(TraceRecord(time, "tick", 0))
        assert window.end == 600.0
        assert [r.time for r in window.records][-2:] == [599.9, 600.0]
        assert len(window.records) == longest + 1

    def test_trees_and_waterfall_when_the_run_has_exemplars(self):
        result = replay(bundle_of(NEVER_HEALS))
        assert result.trees and result.explain is not None
        text = result.render()
        assert f"span trees overlapping the window " \
            f"({len(result.trees)} trace(s)):" in text
        assert "net.datagram" in text
        assert "aggregate waterfall" in text

    def test_cli_replays_a_clean_builtin_seed(self, capsys):
        assert main(["replay", "--scenario", "partition-crdt",
                     "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("scenario='partition-crdt' seed=1: "
                              "0 violation(s)\n")
        assert "trace t=" not in out

    @pytest.mark.parametrize("argv", [
        ["--scenario", "no-such-scenario", "--seed", "1"],
        ["--scenario", "partition-crdt"],
        ["--seed", "1"],
    ])
    def test_cli_usage_errors_exit_two(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["replay"] + argv)
        assert exit_.value.code == 2
        assert "usage: python -m repro replay" in capsys.readouterr().err
