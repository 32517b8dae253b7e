"""Fault schedules: clauses that refuse a bad value when made, their
windows, compilation onto the live fault primitives, observability
surface, determinism.

``_plan_trial`` is module-level because the jobs=1 vs jobs=N snapshot
identity check moves work through pickle (same contract as
tests/obs/test_parallel_snapshots.py).
"""

import math

import pytest

from repro.core.system import IIoTSystem, SystemConfig
from repro.deployment.topology import grid_topology
from repro.devices.sensors import SensorFault
from repro.faults.plan import (
    BORDER_ROUTER,
    CLAUSES,
    Clause,
    CrashClause,
    FaultPlanRuntime,
    InterferenceClause,
    LinkFlapClause,
    PartitionClause,
    RandomCrashesClause,
    SensorClause,
    install,
)
from repro.parallel import TrialExecutor
from tests.conftest import constant_field


# ----------------------------------------------------------------------
# clauses (no simulator needed)
# ----------------------------------------------------------------------
class TestClauses:
    def test_windows_cover_each_clause(self):
        clauses = (
            CrashClause(at_s=10.0, node=5, recover_after_s=20.0),
            PartitionClause(at_s=50.0, cut_x=30.0, heal_after_s=25.0),
            LinkFlapClause(at_s=80.0, a=1, b=2, down_s=5.0, cycles=3,
                           up_s=5.0),
            InterferenceClause(at_s=140.0, duration_s=60.0,
                               position=(0.0, 0.0)),
        )
        assert [clause.window() for clause in clauses] == [
            (10.0, 30.0),
            (50.0, 75.0),
            (80.0, 105.0),  # 3 cycles of (5 down + 5 up), minus final up
            (140.0, 200.0),
        ]

    def test_open_ended_clauses_have_infinite_windows(self):
        clauses = (CrashClause(at_s=10.0, node=5),
                   PartitionClause(at_s=20.0, cut_x=30.0),
                   SensorClause(at_s=30.0, node=4, sensor="temp"))
        assert all(clause.window()[1] == math.inf for clause in clauses)

    @pytest.mark.parametrize("at_s", [math.nan, math.inf, -1.0])
    def test_a_start_must_be_finite_and_non_negative(self, at_s):
        with pytest.raises(ValueError, match="CrashClause.at_s"):
            CrashClause(at_s, node=2)

    @pytest.mark.parametrize("make, field", [
        (lambda v: CrashClause(10.0, 2, recover_after_s=v), "recover_after_s"),
        (lambda v: PartitionClause(10.0, 30.0, heal_after_s=v),
         "heal_after_s"),
        (lambda v: SensorClause(10.0, 2, "temp", clear_after_s=v),
         "clear_after_s"),
        (lambda v: InterferenceClause(10.0, v, (0.0, 0.0)), "duration_s"),
        (lambda v: RandomCrashesClause(10.0, v), "duration_s"),
    ])
    @pytest.mark.parametrize("value", [-20.0, math.nan, math.inf])
    def test_a_delay_must_be_finite_and_non_negative(self, make, field,
                                                      value):
        with pytest.raises(ValueError, match=f"Clause.{field}"):
            make(value)

    # A flap with a negative down_s would claim the window (10, 13) yet
    # leave its link blocked for good, and a NaN cut would cut nothing:
    # the clause refuses each, naming the field.
    @pytest.mark.parametrize("value", [-1.0, 0.0, math.nan, math.inf])
    def test_a_flap_is_down_for_a_finite_positive_time(self, value):
        with pytest.raises(ValueError, match=r"LinkFlapClause\.down_s"):
            LinkFlapClause(at_s=10.0, a=1, b=2, down_s=value, cycles=2,
                           up_s=5.0)

    @pytest.mark.parametrize("value", [-1.0, math.nan, math.inf])
    def test_a_flap_is_up_for_a_finite_non_negative_time(self, value):
        with pytest.raises(ValueError, match=r"LinkFlapClause\.up_s"):
            LinkFlapClause(at_s=10.0, a=1, b=2, down_s=5.0, cycles=2,
                           up_s=value)

    @pytest.mark.parametrize("cycles", [0, -1])
    def test_a_flap_has_at_least_one_cycle(self, cycles):
        with pytest.raises(ValueError, match=r"LinkFlapClause\.cycles"):
            LinkFlapClause(at_s=10.0, a=1, b=2, down_s=5.0, cycles=cycles)

    @pytest.mark.parametrize("cut_x", [math.nan, math.inf, -math.inf])
    def test_a_cut_is_finite(self, cut_x):
        with pytest.raises(ValueError, match=r"PartitionClause\.cut_x"):
            PartitionClause(at_s=10.0, cut_x=cut_x)

    @pytest.mark.parametrize("bad, field", [
        ({"mtbf_s": 0.0}, "mtbf_s"),
        ({"mttr_s": -1.0}, "mttr_s"),
        ({"mtbf_s": math.inf}, "mtbf_s"),
    ])
    def test_a_crash_storm_has_positive_finite_rates(self, bad, field):
        with pytest.raises(ValueError, match=f"RandomCrashesClause.{field}"):
            RandomCrashesClause(at_s=1.0, duration_s=60.0, **bad)

    @pytest.mark.parametrize("bad, field", [
        ({"duty_cycle": 0.0}, "duty_cycle"),
        ({"duty_cycle": 1.0}, "duty_cycle"),
        ({"duty_cycle": 1.5}, "duty_cycle"),
        ({"duty_cycle": math.nan}, "duty_cycle"),
        ({"wifi_channel": 99}, "wifi_channel"),
        ({"position": (math.nan, 0.0)}, "position"),
        ({"tx_power_dbm": math.inf}, "tx_power_dbm"),
    ], ids=["duty-0", "duty-1", "duty-1.5", "duty-nan", "channel-99",
            "nan-position", "inf-power"])
    def test_an_interferer_that_cannot_run_cannot_be_made(self, bad, field):
        with pytest.raises(ValueError, match=f"InterferenceClause.{field}"):
            InterferenceClause(**{"at_s": 20.0, "duration_s": 5.0,
                                  "position": (0.0, 0.0), **bad})


class TestClauseKinds:
    """Adding a clause kind is two parts: a ``Clause`` subclass listed in
    ``CLAUSES`` and its ``FaultPlanRuntime._install_<kind>``."""

    KINDS = Clause.__subclasses__()

    def test_every_kind_is_unique(self):
        kinds = [cls.kind for cls in self.KINDS]
        assert len(kinds) == len(set(kinds)) == 6

    def test_every_kind_is_in_the_codec_table(self):
        assert {cls.kind: cls for cls in self.KINDS} == CLAUSES

    def test_every_kind_has_an_installer(self):
        missing = [cls.kind for cls in self.KINDS
                   if not callable(getattr(FaultPlanRuntime,
                                           f"_install_{cls.kind}", None))]
        assert missing == []


# ----------------------------------------------------------------------
# compiled runtime on a live system
# ----------------------------------------------------------------------
def build_system(seed=31, observability=True):
    system = IIoTSystem.build(
        grid_topology(3),
        config=SystemConfig(observability=observability),
        seed=seed,
    )
    system.add_field_sensors("temp", constant_field(20.0))
    system.start()
    system.run(240.0)
    assert system.converged()
    return system


class TestRuntimeEffects:
    def test_install_rejects_clauses_in_the_past(self):
        system = build_system()
        clauses = [CrashClause(at_s=10.0, node=5)]  # now is 240
        with pytest.raises(ValueError, match="before the install instant"):
            install(system, clauses)

    def test_install_rejects_a_clause_a_hair_before_now(self):
        # Below any float tolerance: the kernel refuses the instant, so
        # install must refuse the clause, by name, before scheduling.
        system = build_system()
        clauses = [CrashClause(at_s=system.sim.now - 5e-10, node=3)]
        with pytest.raises(ValueError, match=r"clauses\[0\]\.at_s=.* before"):
            install(system, clauses)
        install(system, [CrashClause(at_s=system.sim.now, node=3)])
        system.run(10.0)
        assert system.trace.count("fault.crash") == 1

    @pytest.mark.parametrize("clauses, match", [
        ([CrashClause(300.0, 42)], r"clauses\[0\]\.node: unknown node 42"),
        ([SensorClause(300.0, BORDER_ROUTER, "temp")],
         r"clauses\[0\]\.node: unknown node -1"),
        ([SensorClause(300.0, 1, "nope")],
         r"clauses\[0\]\.sensor: node 1 has no sensor 'nope'"),
        ([CrashClause(300.0, 2), LinkFlapClause(300.0, 40, 41, 5.0)],
         r"clauses\[1\]\.a: unknown node 40"),
        ([InterferenceClause(300.0, 5.0, (0.0, 0.0), node_id=3)],
         r"clauses\[0\]\.node_id: interferer id 3 is taken"),
        ([InterferenceClause(300.0, 5.0, (0.0, 0.0), node_id=900),
          InterferenceClause(400.0, 5.0, (0.0, 0.0), node_id=900)],
         r"clauses\[1\]\.node_id: interferer id 900 is taken"),
    ], ids=["unknown-node", "border-router-sensor", "unknown-sensor",
            "unknown-flap-node", "taken-radio-id", "clashing-interferers"])
    def test_install_rejects_a_schedule_the_system_cannot_run(self, clauses,
                                                              match):
        system = build_system()
        with pytest.raises(ValueError, match=match):
            install(system, clauses)
        system.run(200.0)  # nothing was scheduled
        assert all(node.alive for node in system.nodes.values())
        assert system.trace.count("fault.crash") == 0

    def test_install_refuses_a_second_plan_that_cuts_links(self):
        system = build_system()
        start = system.sim.now
        runtime = install(system, [PartitionClause(start + 30.0, cut_x=30.0,
                                                   heal_after_s=60.0)])
        clauses = [CrashClause(start + 10.0, 2),
                   LinkFlapClause(start + 40.0, 0, 1, 5.0)]
        with pytest.raises(ValueError,
                           match=r"clauses\[1\]: .*already owns this "
                                 r"system's link filter"):
            install(system, clauses)
        # Schedules without link clauses still stack on top.
        install(system, [CrashClause(start + 10.0, 2)])
        system.run(50.0)
        assert runtime.sides is not None
        assert system.trace.count("partition.link_down") == 0

    def test_declare_windows_feeds_every_clause(self):
        class Recorder:
            def __init__(self):
                self.windows = []

            def declare_fault_window(self, start, end, grace_s=0.0):
                self.windows.append((start, end, grace_s))

        system = build_system()
        start = system.sim.now
        runtime = install(system, [
            CrashClause(at_s=start + 10.0, node=5, recover_after_s=20.0),
            PartitionClause(at_s=start + 50.0, cut_x=30.0)])
        recorder = Recorder()
        runtime.declare_windows(recorder, grace_s=60.0)
        assert recorder.windows == [(start + 10.0, start + 30.0, 60.0),
                                    (start + 50.0, math.inf, 60.0)]

    def test_crash_clause_crashes_and_recovers(self):
        system = build_system()
        start = system.sim.now
        runtime = install(system, [CrashClause(at_s=start + 60.0, node=5,
                                               recover_after_s=120.0)])
        system.run(120.0)
        assert not system.nodes[5].alive
        assert runtime.active_clauses == 1
        system.run(120.0)
        assert system.nodes[5].alive
        assert runtime.active_clauses == 0
        assert system.trace.count("fault.crash") == 1
        assert system.trace.count("fault.recover") == 1

    def test_border_router_sentinel_resolves_to_root(self):
        system = build_system()
        install(system, [CrashClause(at_s=system.sim.now + 30.0,
                                     node=BORDER_ROUTER,
                                     recover_after_s=60.0)])
        system.run(60.0)
        assert not system.root.alive
        system.run(90.0)
        assert system.root.alive

    def test_partition_clause_applies_and_heals(self):
        system = build_system()
        start = system.sim.now
        runtime = install(system, [PartitionClause(
            at_s=start + 30.0, cut_x=30.0, heal_after_s=90.0)])
        system.run(60.0)
        sides = runtime.sides
        assert sides is not None
        assert {sides[nid] for nid in system.nodes} == {0, 1}
        system.run(90.0)
        assert runtime.sides is None

    def test_link_flap_blocks_then_restores_the_link(self):
        system = build_system()
        start = system.sim.now
        runtime = install(system, [LinkFlapClause(
            at_s=start + 30.0, a=0, b=1, down_s=20.0, cycles=2, up_s=20.0)])

        def down():
            link_filter = system.medium._link_filter
            return link_filter is not None and link_filter(1, 0)

        system.run(40.0)   # inside cycle 1 down
        assert down()
        system.run(20.0)   # inside cycle 1 up
        assert not down()
        system.run(20.0)   # inside cycle 2 down
        assert down()
        system.run(40.0)   # past the window
        assert not down()
        assert runtime.active_clauses == 0

    def test_sensor_clause_faults_and_clears(self):
        system = build_system()
        start = system.sim.now
        install(system, [SensorClause(at_s=start + 30.0, node=4,
                                      sensor="temp", clear_after_s=60.0)])
        system.run(60.0)
        assert system.nodes[4].sensors["temp"].fault is SensorFault.STUCK
        system.run(60.0)
        assert system.nodes[4].sensors["temp"].fault is SensorFault.NONE

    def test_random_crashes_window_is_bounded(self):
        system = build_system()
        start = system.sim.now
        # MTBF short enough that several nodes are down mid-window.
        runtime = install(system, [RandomCrashesClause(
            at_s=start + 30.0, duration_s=600.0, mtbf_s=300.0,
            mttr_s=10_000.0)])
        system.run(620.0)
        # The disturbance actually happened...
        assert not all(node.alive for node in system.nodes.values())
        system.run(60.0)  # ...and the window's end repaired it.
        assert all(node.alive for node in system.nodes.values())
        assert (system.trace.count("fault.random_repair")
                == system.trace.count("fault.random_crash"))
        # Every stochastic crash and repair is an event of the clause span.
        events = [span.category for span in system.obs.spans.spans.values()
                  if span.category.startswith("fault.random_")]
        for category in ("fault.random_crash", "fault.random_repair"):
            assert events.count(category) == system.trace.count(category)
        assert runtime.active_clauses == 0

    def test_interference_clause_starts_and_stops_the_jammer(self):
        system = build_system()
        start = system.sim.now
        runtime = install(system, [InterferenceClause(
            at_s=start + 30.0, duration_s=60.0, position=(20.0, 20.0))])
        system.run(60.0)
        (interferer,) = runtime.interferers
        assert interferer._running
        system.run(60.0)
        assert not interferer._running
        assert runtime.active_clauses == 0


class TestObservabilitySurface:
    def _run_full_plan(self, seed=33):
        system = build_system(seed=seed)
        start = system.sim.now
        runtime = install(system, [
            CrashClause(at_s=start + 30.0, node=5, recover_after_s=60.0),
            PartitionClause(at_s=start + 120.0, cut_x=30.0,
                            heal_after_s=60.0),
            LinkFlapClause(at_s=start + 200.0, a=0, b=1, down_s=10.0,
                           cycles=2, up_s=10.0),
            SensorClause(at_s=start + 260.0, node=4, sensor="temp",
                         clear_after_s=30.0),
            InterferenceClause(at_s=start + 300.0, duration_s=60.0,
                               position=(20.0, 20.0)),
        ])
        system.run(420.0)
        return system, runtime

    def test_every_clause_kind_emits_a_fault_span(self):
        system, _ = self._run_full_plan()
        categories = {span.category
                      for span in system.obs.spans.spans.values()
                      if span.category.startswith("fault.")}
        assert categories == {"fault.crash", "fault.partition",
                              "fault.link_flap", "fault.sensor",
                              "fault.interference"}

    def test_fault_spans_cover_their_windows_and_close(self):
        system, _ = self._run_full_plan()
        fault_spans = [span for span in system.obs.spans.spans.values()
                       if span.category.startswith("fault.")]
        assert len(fault_spans) == 5
        for span in fault_spans:
            assert span.end is not None
            assert span.end > span.start

    def test_fault_active_gauge_returns_to_zero(self):
        system, runtime = self._run_full_plan()
        assert runtime.active_clauses == 0
        assert system.obs.registry.gauges[("fault.active", ())] == 0

    def test_fault_injected_counters_label_each_kind(self):
        system, _ = self._run_full_plan()
        registry = system.obs.registry
        counters = registry.counters
        assert counters[("fault.injected", (("kind", "crash"), ("node", 5)))] == 1
        assert counters[("fault.injected", (("kind", "recover"), ("node", 5)))] == 1
        assert counters[("fault.injected", (("kind", "interference"),))] == 1
        assert registry.snapshot().counter_total("fault.injected") >= 5

    def test_plan_without_observability_runs_silently(self):
        system = build_system(observability=False)
        start = system.sim.now
        runtime = install(system, [
            CrashClause(at_s=start + 30.0, node=5, recover_after_s=30.0),
            PartitionClause(at_s=start + 90.0, cut_x=30.0, heal_after_s=30.0),
        ])
        system.run(180.0)
        assert system.obs is None
        assert runtime.active_clauses == 0
        assert system.trace.count("fault.crash") == 1
        assert system.trace.count("fault.recover") == 1


# ----------------------------------------------------------------------
# determinism: a schedule's run is a pure function of the seed
# ----------------------------------------------------------------------
SEEDS = [11, 12, 13, 14]


def _plan_trial(seed):
    """One fully loaded schedule's run; returns the metrics snapshot."""
    system = build_system(seed=seed)
    start = system.sim.now
    install(system, [
        CrashClause(at_s=start + 30.0, node=5, recover_after_s=60.0),
        PartitionClause(at_s=start + 120.0, cut_x=30.0, heal_after_s=60.0),
        SensorClause(at_s=start + 200.0, node=4, sensor="temp",
                     clear_after_s=30.0),
        InterferenceClause(at_s=start + 240.0, duration_s=60.0,
                           position=(20.0, 20.0)),
        RandomCrashesClause(at_s=start + 320.0, duration_s=200.0,
                            mtbf_s=400.0, mttr_s=60.0),
    ])
    system.run(600.0)
    return system.obs.registry.snapshot()


class TestDeterminism:
    def test_same_seed_same_snapshot(self):
        assert _plan_trial(11) == _plan_trial(11)

    def test_jobs1_and_jobs3_snapshots_identical(self):
        serial = TrialExecutor(jobs=1).map(
            _plan_trial, [(seed,) for seed in SEEDS])
        parallel = TrialExecutor(jobs=3).map(
            _plan_trial, [(seed,) for seed in SEEDS])
        assert serial == parallel
