"""Service availability: the probes, the checker, and the built-in
dependability scenarios."""

import pytest

from repro.app.scenarios import BUILTIN_SCENARIOS
from repro.app.sweep import SeedSweepRunner
from repro.checking.availability import (
    AvailabilityChecker,
    reachable_fraction,
    service_availability,
)
from repro.checking.base import CheckerSuite
from repro.core.system import IIoTSystem
from repro.deployment.topology import grid_topology
from repro.faults.plan import FaultPlan


def build_system(seed=41):
    system = IIoTSystem.build(grid_topology(3), seed=seed)
    system.start()
    system.run(240.0)
    assert system.converged()
    return system


def cut(system, heal_after_s=None):
    """Partition the grid at x=30 now; the runtime holds the sides."""
    runtime = FaultPlan().partition(system.sim.now, 30.0,
                                    heal_after_s).install(system)
    system.run(0.0)
    return runtime


# ----------------------------------------------------------------------
# probes
# ----------------------------------------------------------------------
class TestServiceAvailability:
    def test_healthy_unpartitioned_network_is_fully_served(self):
        system = build_system()
        assert service_availability(system, [0]) == 1.0

    def test_dead_sole_endpoint_serves_nobody(self):
        system = build_system()
        system.root.fail()
        assert service_availability(system, [0]) == 0.0

    def test_partition_without_standby_cuts_the_far_side(self):
        system = build_system()
        cutter = cut(system)
        # grid(3) at cut_x=30: left holds root + 5 clients, right holds 3.
        assert service_availability(
            system, [0], partitions=cutter) == pytest.approx(5 / 8)

    def test_standby_endpoint_on_the_far_side_restores_service(self):
        system = build_system()
        cutter = cut(system, heal_after_s=10.0)
        assert service_availability(system, [0, 8],
                                    partitions=cutter) == 1.0
        system.run(10.0)
        assert cutter.sides is None
        assert service_availability(system, [0, 8],
                                    partitions=cutter) == 1.0

    def test_endpoints_do_not_count_as_their_own_clients(self):
        system = build_system()
        everyone = sorted(system.nodes)
        assert service_availability(system, everyone) == 1.0


class TestReachableFraction:
    def test_converged_grid_is_fully_reachable(self):
        system = build_system()
        assert reachable_fraction(system) == 1.0

    def test_crashed_node_drops_out_of_the_denominator_and_strands_children(
            self):
        system = build_system()
        # Crash every possible relay of corner node 8: its parent chain
        # to the root must die with them.
        for relay in (5, 7):
            system.nodes[relay].fail()
        fraction = reachable_fraction(system)
        # 6 alive non-root nodes remain; node 8's parent is dead (no
        # repair has run), so at most 5 of 6 reach the root.
        assert fraction <= 5 / 6

    def test_dead_root_means_nothing_is_reachable(self):
        system = build_system()
        system.root.fail()
        assert reachable_fraction(system) == 0.0


# ----------------------------------------------------------------------
# the checker
# ----------------------------------------------------------------------
def attach(system, **kwargs):
    suite = CheckerSuite(system.sim, system.trace)
    checker = AvailabilityChecker(system, **kwargs)
    suite.add(checker)
    return suite, checker


class TestAvailabilityChecker:
    def test_floor_must_be_a_fraction(self):
        system = build_system()
        with pytest.raises(ValueError):
            AvailabilityChecker(system, floor=1.5)

    def test_clean_run_records_nothing(self):
        system = build_system()
        suite, checker = attach(system, period_s=15.0)
        system.run(300.0)
        suite.finish()
        suite.detach()
        assert suite.violations == []
        assert checker.mean_availability() == 1.0
        assert checker.min_availability() == 1.0
        assert checker.mean_reachable() == 1.0

    def test_undeclared_outage_breaks_the_floor(self):
        system = build_system()
        suite, checker = attach(system, period_s=15.0, floor=0.6)
        system.sim.schedule(60.0, system.root.fail)
        system.run(200.0)
        suite.finish()
        suite.detach()
        invariants = {v.invariant for v in suite.violations}
        assert "service_availability_floor" in invariants
        assert checker.min_availability() == 0.0

    def test_declared_fault_window_suppresses_the_floor_check(self):
        system = build_system()
        suite, checker = attach(system, period_s=15.0, floor=0.6)
        start = system.sim.now
        checker.declare_fault_window(start + 60.0, start + 180.0,
                                     grace_s=120.0)
        system.sim.schedule(60.0, system.root.fail)
        system.sim.schedule(180.0, system.root.recover)
        system.run(400.0)
        suite.finish()
        suite.detach()
        assert suite.violations == []
        assert checker.min_availability() == 0.0  # outage really happened

    def test_unrestored_availability_is_flagged_at_finish(self):
        system = build_system()
        suite, checker = attach(system, period_s=15.0, floor=0.6)
        start = system.sim.now
        # Declared, but never recovered: the window excuses the dips,
        # finish() still demands restoration.
        checker.declare_fault_window(start, float("inf"))
        system.sim.schedule(60.0, system.root.fail)
        system.run(200.0)
        suite.finish()
        suite.detach()
        assert {v.invariant for v in suite.violations} == {
            "availability_not_restored"}

    def test_settle_period_mutes_early_samples(self):
        system = build_system()
        system.root.fail()  # broken from the very first sample
        suite, checker = attach(system, period_s=15.0,
                                settle_s=system.sim.now + 10_000.0)
        system.run(300.0)
        suite.detach()  # skip finish(): only the floor check is under test
        assert suite.violations == []
        assert checker.mean_availability() == 0.0


# ----------------------------------------------------------------------
# the built-in dependability scenarios stay clean across seeds
# ----------------------------------------------------------------------
class TestBuiltinScenarios:
    def test_availability_probe_scenario_sweeps_clean(self):
        runner = SeedSweepRunner("availability-probe",
                                 BUILTIN_SCENARIOS["availability-probe"])
        for outcome in runner.run([3, 4, 5]):
            assert outcome.clean, outcome.violations

    def test_availability_probe_measures_real_downtime(self):
        suite = BUILTIN_SCENARIOS["availability-probe"].run(3).checkers
        checker = next(c for c in suite.checkers
                       if isinstance(c, AvailabilityChecker))
        assert checker.min_availability() < 1.0
        assert checker.mean_availability() < 1.0
        assert checker.samples[-1][1] == 1.0  # restored by the end

    def test_hvac_safety_scenario_sweeps_clean(self):
        runner = SeedSweepRunner("hvac-safety",
                                 BUILTIN_SCENARIOS["hvac-safety"])
        outcome = runner.run_seed(7)
        assert outcome.clean, outcome.violations
