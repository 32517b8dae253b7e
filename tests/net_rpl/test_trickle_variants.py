"""Pluggable Trickle adaptation variants: policy units and wiring.

The classic variant's byte-identity with the pre-refactor timer is
enforced by the ``core`` gate (``make gates``); these tests cover the adaptive policies
themselves, the config plumbing (``RplConfig``, alone and inside a
``SystemConfig``), and
the jobs=1 vs jobs=N DIO-count determinism the taxonomy matrix relies
on.
"""

import pytest

from repro.core.system import IIoTSystem, SystemConfig
from repro.deployment.topology import grid_topology
from repro.net.rpl.dodag import RplConfig
from repro.net.rpl.trickle import (
    TRICKLE_VARIANTS,
    AdaptiveIminVariant,
    AdaptiveKVariant,
    TrickleTimer,
    TrickleVariant,
    make_trickle_variant,
)
from repro.net.stack import StackConfig
from repro.obs import Observability
from repro.obs.registry import MetricsSnapshot
from repro.parallel import TrialExecutor
from repro.sim.kernel import Simulator
from tests.conftest import build_line_network

VARIANTS = sorted(TRICKLE_VARIANTS)


class TestRegistry:
    def test_names_are_stable(self):
        assert VARIANTS == ["adaptive-imin", "adaptive-k", "classic"]

    @pytest.mark.parametrize("name", VARIANTS)
    def test_factory_builds_each_variant(self, name):
        variant = make_trickle_variant(name)
        assert variant.name == name
        assert isinstance(variant, TrickleVariant)

    def test_unknown_name_lists_the_choices(self):
        with pytest.raises(ValueError, match="adaptive-imin"):
            make_trickle_variant("qtrickle")

    def test_variant_binds_to_exactly_one_timer(self):
        sim = Simulator(seed=1)
        variant = make_trickle_variant("classic")
        TrickleTimer(sim, 1.0, 4, 1, lambda: None, variant=variant)
        with pytest.raises(ValueError, match="exactly one timer"):
            TrickleTimer(sim, 1.0, 4, 1, lambda: None, variant=variant)

    @pytest.mark.parametrize("ctor", [
        lambda: AdaptiveIminVariant(shrink=0.0),
        lambda: AdaptiveIminVariant(shrink=1.0),
        lambda: AdaptiveIminVariant(floor_factor=0.0),
        lambda: AdaptiveIminVariant(relax_after=0),
        lambda: AdaptiveKVariant(k_min=0),
        lambda: AdaptiveKVariant(k_min=3, k_max=2),
    ])
    def test_invalid_parameters_rejected(self, ctor):
        with pytest.raises(ValueError):
            ctor()


class TestAdaptiveImin:
    def make(self, sim, **kwargs):
        variant = AdaptiveIminVariant(**kwargs)
        timer = TrickleTimer(sim, 8.0, 4, 1, lambda: None, variant=variant)
        timer.start()
        return timer, variant

    def test_resets_shrink_the_effective_imin(self):
        sim = Simulator(seed=3)
        timer, variant = self.make(sim, shrink=0.5, floor_factor=0.25)
        assert variant.imin_eff == timer.imin
        sim.run(until=100.0)        # let I grow past imin
        timer.reset()
        assert variant.imin_eff == pytest.approx(4.0)
        assert timer.interval == pytest.approx(4.0)
        timer.reset()
        assert variant.imin_eff == pytest.approx(2.0)    # floor at 2.0
        timer.reset()
        assert variant.imin_eff == pytest.approx(2.0)

    def test_quiet_intervals_relax_back_toward_imin(self):
        sim = Simulator(seed=3)
        timer, variant = self.make(sim, shrink=0.5, relax_after=2)
        sim.run(until=100.0)
        timer.reset()
        timer.reset()
        shrunk = variant.imin_eff
        assert shrunk < timer.imin
        sim.run(until=sim.now + 300.0)      # many quiet intervals
        assert variant.imin_eff == timer.imin

    def test_reset_storm_converges_faster_than_classic(self):
        def resets_fired(variant_name):
            sim = Simulator(seed=9)
            fired = []
            timer = TrickleTimer(sim, 4.0, 6, 10,
                                 lambda: fired.append(sim.now),
                                 variant=make_trickle_variant(variant_name))
            timer.start()
            # An inconsistency storm: reset every 3 s for a minute.
            for i in range(1, 21):
                sim.schedule(3.0 * i, timer.reset)
            sim.run(until=90.0)
            return len(fired)

        # Shrinking I_min below the reset period lets transmissions
        # land between resets; classic I_min=4 > period=3 mostly starves.
        assert resets_fired("adaptive-imin") > resets_fired("classic")


class TestAdaptiveK:
    def make(self, sim, k=2, **kwargs):
        variant = AdaptiveKVariant(**kwargs)
        timer = TrickleTimer(sim, 10.0, 0, k, lambda: None, variant=variant)
        timer.start()
        return timer, variant

    def test_dense_neighborhood_lowers_k(self):
        sim = Simulator(seed=5)
        timer, variant = self.make(sim, k=2)
        assert variant.k_eff == 2

        def chatter():
            for _ in range(5):      # heard > k_eff every interval
                timer.hear_consistent()

        for i in range(4):
            sim.schedule(10.0 * i + 1.0, chatter)
        sim.run(until=45.0)
        assert variant.k_eff == variant.k_min == 1

    def test_sparse_neighborhood_raises_k(self):
        sim = Simulator(seed=5)
        timer, variant = self.make(sim, k=2)
        sim.run(until=200.0)        # hears nothing at all
        assert variant.k_eff == variant.k_max
        assert variant.k_max == max(2 * timer.k, timer.k + 1)

    def test_threshold_is_consulted_at_fire_time(self):
        sim = Simulator(seed=5)
        timer, variant = self.make(sim, k=2)
        variant.k_eff = 1
        timer.hear_consistent()     # c=1 >= k_eff=1 -> suppress
        sim.run(until=10.0)
        assert timer.suppressions == 1
        assert timer.transmissions == 0


class TestWiring:
    def test_rpl_config_selects_the_variant(self):
        sim, log, stacks = build_line_network(
            2, config=StackConfig(
                rpl=RplConfig(trickle_variant="adaptive-k")))
        for stack in stacks:
            assert stack.rpl.trickle.variant.name == "adaptive-k"

    @staticmethod
    def _system_config(variant):
        return SystemConfig(stack=StackConfig(
            rpl=RplConfig(trickle_variant=variant)))

    def test_system_config_carries_the_stack_variant(self):
        system = IIoTSystem.build(
            grid_topology(2), config=self._system_config("adaptive-imin"))
        for node in system.nodes.values():
            assert node.stack.rpl.trickle.variant.name == "adaptive-imin"

    def test_system_config_rejects_unknown_variant_up_front(self):
        # At build time, not at the first DIO.
        with pytest.raises(ValueError, match="unknown Trickle variant"):
            IIoTSystem.build(grid_topology(2),
                             config=self._system_config("nope"))


def _dio_trial(variant, seed):
    """Instrumented 3-node line under one Trickle variant; returns the
    registry snapshot (module-level for the process pool)."""
    sim, log, stacks = build_line_network(
        3, seed=seed,
        config=StackConfig(rpl=RplConfig(trickle_variant=variant)))
    obs = Observability().attach(log)
    sim.run(until=600.0)
    return obs.registry.snapshot()


class TestDeterminism:
    """The satellite gate: identical DIO counts across jobs."""

    SEEDS = [21, 22, 23]

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.usefixtures("multicore")
    def test_dio_counts_identical_across_jobs(self, variant):
        tasks = [(variant, seed) for seed in self.SEEDS]
        serial = MetricsSnapshot.merge(
            TrialExecutor(jobs=1).map(_dio_trial, tasks))
        parallel = MetricsSnapshot.merge(
            TrialExecutor(jobs=2).map(_dio_trial, tasks))
        assert serial.counter_total("rpl.trickle.tx") > 0
        assert serial == parallel

    def test_variants_actually_change_the_dio_schedule(self):
        # Under an inconsistency storm the adaptive-imin policy shrinks
        # its reset interval below the churn period, landing DIOs that
        # classic (I_min above the churn period) mostly cannot.
        def churn_dios(variant):
            sim, log, stacks = build_line_network(
                3, seed=21,
                config=StackConfig(rpl=RplConfig(trickle_variant=variant)))
            obs = Observability().attach(log)
            sim.run(until=200.0)
            for i in range(1, 40):
                sim.schedule(200.0 + 3.0 * i, stacks[0].rpl.trickle.reset)
            sim.run(until=400.0)
            return obs.registry.snapshot().counter_total("rpl.trickle.tx")

        assert churn_dios("adaptive-imin") > churn_dios("classic")
