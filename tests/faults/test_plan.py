"""The declarative fault-plan engine: builders, windows, compilation
onto the live fault primitives, observability surface, determinism.

``_plan_trial`` is module-level because the jobs=1 vs jobs=N snapshot
identity check moves work through pickle (same contract as
tests/obs/test_parallel_snapshots.py).
"""

import math

import pytest

from repro.core.scenario import Scenario
from repro.core.system import IIoTSystem, SystemConfig
from repro.deployment.topology import grid_topology
from repro.devices.sensors import SensorFault
from repro.faults.plan import (
    BORDER_ROUTER,
    CrashClause,
    FaultPlan,
    InterferenceClause,
    LinkFlapClause,
    PartitionClause,
    RandomCrashesClause,
    SensorClause,
)
from repro.obs.registry import MetricsSnapshot
from repro.parallel import TrialExecutor
from tests.conftest import constant_field


# ----------------------------------------------------------------------
# declarative layer (no simulator needed)
# ----------------------------------------------------------------------
class TestPlanBuilder:
    def test_builders_chain_and_append_in_order(self):
        plan = (FaultPlan()
                .crash(at_s=10.0, node=5, recover_after_s=20.0)
                .kill_border_router(at_s=40.0)
                .partition(at_s=50.0, cut_x=30.0, heal_after_s=25.0)
                .flap_link(at_s=80.0, a=1, b=2, down_s=5.0, cycles=3,
                           up_s=5.0)
                .sensor_fault(at_s=100.0, node=4, sensor="temp",
                              mode=SensorFault.DRIFT, clear_after_s=30.0)
                .interference(at_s=140.0, duration_s=60.0,
                              position=(20.0, 20.0))
                .random_crashes(at_s=210.0, duration_s=300.0))
        assert len(plan) == 7
        kinds = [clause.kind for clause in plan.clauses]
        assert kinds == ["crash", "crash", "partition", "link_flap",
                         "sensor", "interference", "random_crashes"]
        assert plan.clauses[1].node == BORDER_ROUTER

    def test_windows_cover_each_clause(self):
        plan = (FaultPlan()
                .crash(at_s=10.0, node=5, recover_after_s=20.0)
                .partition(at_s=50.0, cut_x=30.0, heal_after_s=25.0)
                .flap_link(at_s=80.0, a=1, b=2, down_s=5.0, cycles=3,
                           up_s=5.0)
                .interference(at_s=140.0, duration_s=60.0,
                              position=(0.0, 0.0)))
        assert plan.windows() == [
            (10.0, 30.0),
            (50.0, 75.0),
            (80.0, 105.0),  # 3 cycles of (5 down + 5 up), minus final up
            (140.0, 200.0),
        ]

    def test_open_ended_clauses_have_infinite_windows(self):
        plan = (FaultPlan()
                .crash(at_s=10.0, node=5)
                .partition(at_s=20.0, cut_x=30.0)
                .sensor_fault(at_s=30.0, node=4, sensor="temp"))
        assert all(end == math.inf for _, end in plan.windows())

    def test_extend_composes_plans(self):
        base = FaultPlan().crash(at_s=10.0, node=1)
        extra = FaultPlan().partition(at_s=20.0, cut_x=30.0)
        combined = base.extend(extra)
        assert combined is base
        assert [c.kind for c in combined.clauses] == ["crash", "partition"]

    def test_declare_windows_feeds_every_clause(self):
        class Recorder:
            def __init__(self):
                self.windows = []

            def declare_fault_window(self, start, end, grace_s=0.0):
                self.windows.append((start, end, grace_s))

        plan = (FaultPlan()
                .crash(at_s=10.0, node=5, recover_after_s=20.0)
                .partition(at_s=50.0, cut_x=30.0))
        recorder = Recorder()
        plan.declare_windows(recorder, grace_s=60.0)
        assert recorder.windows == [(10.0, 30.0, 60.0),
                                    (50.0, math.inf, 60.0)]

    def test_validate_rejects_negative_start(self):
        with pytest.raises(ValueError):
            FaultPlan().crash(at_s=-1.0, node=2).validate()

    def test_validate_rejects_inverted_window(self):
        with pytest.raises(ValueError):
            FaultPlan().crash(at_s=10.0, node=2,
                              recover_after_s=-20.0).validate()

    @pytest.mark.parametrize("bad, match", [
        ({"duty_cycle": 0.0}, "duty_cycle"),
        ({"duty_cycle": 1.0}, "duty_cycle"),
        ({"duty_cycle": 1.5}, "duty_cycle"),
        ({"duty_cycle": math.nan}, "duty_cycle"),
        ({"wifi_channel": 99}, "Wi-Fi channel 99"),
        ({"position": (math.nan, 0.0)}, "position"),
    ], ids=["duty-0", "duty-1", "duty-1.5", "duty-nan", "channel-99",
            "nan-position"])
    def test_an_interferer_that_cannot_run_is_rejected_up_front(
            self, bad, match):
        plan = FaultPlan().crash(at_s=10.0, node=2).interference(
            at_s=20.0, duration_s=5.0, **{"position": (0.0, 0.0), **bad})
        match = f"clause 1 .*{match}"
        with pytest.raises(ValueError, match=match):
            plan.validate()
        with pytest.raises(ValueError, match=match):
            FaultPlan.from_jsonable(plan.to_jsonable())
        with pytest.raises(ValueError, match=match):
            Scenario(topology=grid_topology(2), faults=plan.clauses)


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
        plan = FaultPlan().crash(at_s=10.0, node=5)  # now is 240
        with pytest.raises(ValueError, match="past"):
            plan.install(system)

    def test_install_rejects_a_clause_a_hair_before_now(self):
        # Below any float tolerance: the kernel refuses the instant, so
        # the plan must refuse the clause, by name, before scheduling.
        system = build_system()
        plan = FaultPlan().crash(at_s=system.sim.now - 5e-10, node=3)
        with pytest.raises(ValueError, match="clause 0 .*in the past"):
            plan.install(system)
        plan = FaultPlan().crash(at_s=system.sim.now, node=3)
        plan.install(system)
        system.run(10.0)
        assert system.trace.count("fault.crash") == 1

    @pytest.mark.parametrize("plan, match", [
        (FaultPlan().crash(300.0, 42), "clause 0 .*unknown node 42"),
        (FaultPlan().sensor_fault(300.0, 1, "nope"),
         "clause 0 .*node 1 has no sensor 'nope'"),
        (FaultPlan().crash(300.0, 2).flap_link(300.0, 40, 41, 5.0),
         "clause 1 .*unknown node 40"),
        (FaultPlan().interference(300.0, 5.0, (0.0, 0.0), node_id=3),
         "clause 0 .*interferer id 3 is taken"),
        (FaultPlan().interference(300.0, 5.0, (0.0, 0.0), node_id=900)
                    .interference(400.0, 5.0, (0.0, 0.0), node_id=900),
         "clause 1 .*interferer id 900 is taken"),
    ], ids=["unknown-node", "unknown-sensor", "unknown-flap-node",
            "taken-radio-id", "clashing-interferers"])
    def test_install_rejects_a_plan_the_system_cannot_run(self, plan, match):
        system = build_system()
        with pytest.raises(ValueError, match=match):
            plan.install(system)
        system.run(200.0)  # nothing was scheduled
        assert all(node.alive for node in system.nodes.values())
        assert system.trace.count("fault.crash") == 0

    def test_install_refuses_a_second_plan_that_cuts_links(self):
        system = build_system()
        start = system.sim.now
        runtime = FaultPlan().partition(start + 30.0, cut_x=30.0,
                                        heal_after_s=60.0).install(system)
        plan = FaultPlan().crash(start + 10.0, 2).flap_link(
            start + 40.0, 0, 1, 5.0)
        with pytest.raises(ValueError,
                           match="clause 1 .*already owns this system's "
                                 "link filter"):
            plan.install(system)
        # Plans without link clauses still stack on top.
        FaultPlan().crash(start + 10.0, 2).install(system)
        system.run(50.0)
        assert runtime.sides is not None
        assert system.trace.count("partition.link_down") == 0

    def test_crash_clause_crashes_and_recovers(self):
        system = build_system()
        start = system.sim.now
        plan = FaultPlan().crash(at_s=start + 60.0, node=5,
                                 recover_after_s=120.0)
        runtime = plan.install(system)
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
        plan = FaultPlan().kill_border_router(at_s=system.sim.now + 30.0,
                                              recover_after_s=60.0)
        plan.install(system)
        system.run(60.0)
        assert not system.root.alive
        system.run(90.0)
        assert system.root.alive

    def test_partition_clause_applies_and_heals(self):
        system = build_system()
        start = system.sim.now
        plan = FaultPlan().partition(at_s=start + 30.0, cut_x=30.0,
                                     heal_after_s=90.0)
        runtime = plan.install(system)
        system.run(60.0)
        sides = runtime.sides
        assert sides is not None
        assert {sides[nid] for nid in system.nodes} == {0, 1}
        system.run(90.0)
        assert runtime.sides is None

    def test_link_flap_blocks_then_restores_the_link(self):
        system = build_system()
        start = system.sim.now
        plan = FaultPlan().flap_link(at_s=start + 30.0, a=0, b=1,
                                     down_s=20.0, cycles=2, up_s=20.0)
        runtime = plan.install(system)

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
        plan = FaultPlan().sensor_fault(at_s=start + 30.0, node=4,
                                        sensor="temp",
                                        mode=SensorFault.STUCK,
                                        clear_after_s=60.0)
        plan.install(system)
        system.run(60.0)
        assert system.nodes[4].sensors["temp"].fault is SensorFault.STUCK
        system.run(60.0)
        assert system.nodes[4].sensors["temp"].fault is SensorFault.NONE

    def test_random_crashes_window_is_bounded(self):
        system = build_system()
        start = system.sim.now
        # MTBF short enough that several nodes are down mid-window.
        plan = FaultPlan().random_crashes(at_s=start + 30.0,
                                          duration_s=600.0,
                                          mtbf_s=300.0, mttr_s=10_000.0)
        runtime = plan.install(system)
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
        plan = FaultPlan().interference(at_s=start + 30.0, duration_s=60.0,
                                        position=(20.0, 20.0))
        runtime = plan.install(system)
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
        plan = (FaultPlan()
                .crash(at_s=start + 30.0, node=5, recover_after_s=60.0)
                .partition(at_s=start + 120.0, cut_x=30.0, heal_after_s=60.0)
                .flap_link(at_s=start + 200.0, a=0, b=1, down_s=10.0,
                           cycles=2, up_s=10.0)
                .sensor_fault(at_s=start + 260.0, node=4, sensor="temp",
                              clear_after_s=30.0)
                .interference(at_s=start + 300.0, duration_s=60.0,
                              position=(20.0, 20.0)))
        runtime = plan.install(system)
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
        assert system.obs.registry.gauge("fault.active").value == 0

    def test_fault_injected_counters_label_each_kind(self):
        system, _ = self._run_full_plan()
        registry = system.obs.registry
        assert registry.counter("fault.injected", kind="crash",
                                node=5).value == 1
        assert registry.counter("fault.injected", kind="recover",
                                node=5).value == 1
        assert registry.counter("fault.injected",
                                kind="interference").value == 1
        assert registry.snapshot().counter_total("fault.injected") >= 5

    def test_plan_without_observability_runs_silently(self):
        system = build_system(observability=False)
        start = system.sim.now
        plan = (FaultPlan()
                .crash(at_s=start + 30.0, node=5, recover_after_s=30.0)
                .partition(at_s=start + 90.0, cut_x=30.0, heal_after_s=30.0))
        runtime = plan.install(system)
        system.run(180.0)
        assert system.obs is None
        assert runtime.active_clauses == 0
        assert system.trace.count("fault.crash") == 1
        assert system.trace.count("fault.recover") == 1


# ----------------------------------------------------------------------
# determinism: the plan is a pure function of the seed
# ----------------------------------------------------------------------
SEEDS = [11, 12, 13, 14]


def _plan_trial(seed):
    """One fully loaded plan run; returns the metrics snapshot."""
    system = build_system(seed=seed)
    start = system.sim.now
    plan = (FaultPlan()
            .crash(at_s=start + 30.0, node=5, recover_after_s=60.0)
            .partition(at_s=start + 120.0, cut_x=30.0, heal_after_s=60.0)
            .sensor_fault(at_s=start + 200.0, node=4, sensor="temp",
                          clear_after_s=30.0)
            .interference(at_s=start + 240.0, duration_s=60.0,
                          position=(20.0, 20.0))
            .random_crashes(at_s=start + 320.0, duration_s=200.0,
                            mtbf_s=400.0, mttr_s=60.0))
    plan.install(system)
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
        assert MetricsSnapshot.merge(serial) == MetricsSnapshot.merge(parallel)
        for a, b in zip(serial, parallel):
            assert a == b
