"""Satellite: the seed-sweep harness over real fault scenarios.

Partition + heal and border-router death under RNFD, each across ten
seeds, with every default checker plus the CRDT checker attached — the
acceptance sweep for the checking subsystem.  ``make check-invariants``
runs this module (and the rest of tests/checking) separately from the
tier-1 suite.
"""

from repro.app.scenarios import BUILTIN_SCENARIOS
from repro.app.sweep import SeedSweepRunner
from repro.core.scenario import Scenario

SEEDS = 10


class TestSeedSweeps:
    def test_partition_scenario_clean_across_seeds(self):
        runner = SeedSweepRunner("partition-crdt",
                                 BUILTIN_SCENARIOS["partition-crdt"])
        outcomes = runner.run_count(SEEDS)
        assert len(outcomes) == SEEDS
        assert all(o.clean for o in outcomes)

    def test_rnfd_root_failure_clean_across_seeds(self):
        runner = SeedSweepRunner("rnfd-root-failure",
                                 BUILTIN_SCENARIOS["rnfd-root-failure"])
        outcomes = runner.run_count(SEEDS)
        assert len(outcomes) == SEEDS
        assert all(o.clean for o in outcomes)

    def test_random_crashes_clean_across_seeds(self):
        # Unlike the scripted scenarios, the fault *schedule* here is
        # seed-derived: each seed explores a different crash/repair
        # interleaving against the same invariants.
        runner = SeedSweepRunner("random-crashes",
                                 BUILTIN_SCENARIOS["random-crashes"])
        outcomes = runner.run_count(SEEDS)
        assert len(outcomes) == SEEDS
        assert all(o.clean for o in outcomes)

    def test_tsch_stack_clean_across_seeds(self):
        # The partition + root-kill moves over the scheduled MAC: the
        # checkers and fault plan are unchanged from the CSMA
        # scenarios — MAC-agnostic invariants must hold through
        # slotframe rendezvous and 6P renegotiation too.
        runner = SeedSweepRunner("tsch-dependability",
                                 BUILTIN_SCENARIOS["tsch-dependability"])
        outcomes = runner.run_count(SEEDS)
        assert len(outcomes) == SEEDS
        assert all(o.clean for o in outcomes)

    def test_tsch_dependability_is_a_builtin(self):
        scenario = BUILTIN_SCENARIOS["tsch-dependability"]
        assert isinstance(scenario, Scenario)
        assert scenario.config.stack.mac == "tsch"

    def test_random_crashes_is_a_builtin_with_declared_windows(self):
        suite = BUILTIN_SCENARIOS["random-crashes"].run(3).checkers
        suite.finish()
        by_name = {c.name: c for c in suite.checkers}
        dodag = by_name["rpl.dodag"]
        # The storm window was declared on the window-aware checkers:
        # stale routing state mid-storm is an expected fault
        # consequence, not a violation — and sampling still ran.
        assert dodag.in_fault_window(700.0)
        assert not dodag.in_fault_window(1400.0)
        assert dodag.samples > 0
        assert suite.clean

    def test_scenarios_exercise_every_default_checker(self):
        # The sweep only means something if the checkers actually saw
        # traffic: DODAG samples, radio frames, CRDT law probes.
        suite = BUILTIN_SCENARIOS["partition-crdt"].run(99).checkers
        suite.finish()
        by_name = {c.name: c for c in suite.checkers}
        assert by_name["rpl.dodag"].samples > 0
        assert sum(by_name["radio.state"]._tx_seen.values()) > 0
        assert by_name["crdt"].law_samples > 0
        assert by_name["rpl.path"].deliveries >= 0
        assert suite.clean
