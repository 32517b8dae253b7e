"""Built-in sweep scenarios: fault plans under full invariant checking.

Each built-in is a :class:`~repro.core.scenario.Scenario` with
``invariant_checking=True``; :class:`~repro.app.sweep.SeedSweepRunner`
runs it per seed and reads the system's
:class:`~repro.checking.base.CheckerSuite`, and ``python -m repro replay``
re-runs a failing seed fully observed: nothing is recorded in advance.
They cover the two fault families the paper leans on hardest — network
partitions (§V-C) and border-router failure under RNFD (E5) — so
sweeping them across seeds exercises every layer's checkers against the
nastiest schedules the deterministic kernel can produce.  Their bespoke
parts are the workloads of the same names (:mod:`repro.core.workloads`).

They live in the application tier: a scenario imports half the codebase
(system, CRDTs, faults), and :mod:`repro.checking` sits below
:mod:`repro.core.system`, which installs its checkers.
"""

from __future__ import annotations

from repro.core.scenario import Scenario
from repro.core.system import SystemConfig
from repro.core.workloads import CUT_X, AvailabilityProbe, HvacSafety, PartitionCrdt
from repro.deployment.topology import grid_topology
from repro.devices.sensors import SensorFault
from repro.faults.plan import FaultPlan
from repro.net.mac.tsch import TschConfig
from repro.net.rpl.dodag import RplConfig
from repro.net.rpl.rnfd import RnfdConfig
from repro.net.stack import StackConfig

#: RNFD so a border-router kill is *detected* (poisoned ranks) rather
#: than leaving stale ranks to trip the DODAG checker.
_RNFD = StackConfig(mac="csma", rnfd_enabled=True,
                    rnfd=RnfdConfig(probe_period_s=10.0),
                    rpl=RplConfig(dao_period_s=60.0))

#: name -> scenario, for the CLI, the dependability gate and the sweeps.
BUILTIN_SCENARIOS = {
    # Partition a gossiping CRDT deployment, write on both sides, heal.
    # Stresses RPL repair across the cut, CRDT lattice laws under
    # concurrent divergent writes, and convergence after the heal
    # (checked at finish, after 240 s of anti-entropy quiescence).
    "partition-crdt": Scenario(
        topology=grid_topology(3),
        config=SystemConfig(stack=StackConfig(mac="csma"),
                            invariant_checking=True),
        workloads=(PartitionCrdt(),),
        faults=FaultPlan().partition(240.0, cut_x=CUT_X,
                                     heal_after_s=120.0).clauses,
        faults_at_s=240.0,
        formation_s=180.0,
        run_s=420.0,
    ),
    # Crash the border router under RNFD; let it recover and re-root.
    # Stresses RNFD's collective verdict, DODAG collapse and poisoning,
    # floating-DODAG formation, and re-join after recovery — the regime
    # with the highest historical risk of routing loops.
    "rnfd-root-failure": Scenario(
        topology=grid_topology(3),
        config=SystemConfig(stack=_RNFD, invariant_checking=True),
        faults=FaultPlan().kill_border_router(
            250.0, recover_after_s=300.0).clauses,
        formation_s=240.0,
        run_s=700.0,
    ),
    # Remote-controlled HVAC zones through a declarative plan that
    # crashes a zone node, partitions a zone away from its controller,
    # sticks a zone sensor and kills the border router.  The comfort
    # envelope must hold *outside* the plan's windows: comfort lost
    # while the system is healthy is a control bug.
    "hvac-safety": Scenario(
        topology=grid_topology(3),
        config=SystemConfig(stack=_RNFD, invariant_checking=True,
                            observability=True),
        workloads=(HvacSafety(),),
        faults=(FaultPlan()
                .crash(2640.0, 4, recover_after_s=900.0)
                .partition(5640.0, cut_x=CUT_X, heal_after_s=1800.0)
                .sensor_fault(9240.0, 8, "zone_temp", SensorFault.STUCK,
                              clear_after_s=900.0)
                .kill_border_router(11040.0, recover_after_s=600.0)).clauses,
        faults_at_s=2040.0,  # once the rooms settled (1800 s)
        formation_s=240.0,
        run_s=13800.0,
    ),
    # Service availability through a partition/crash cycle: the border
    # router plus a standby endpoint keep both halves served, so service
    # availability — the taxonomy's availability axis — stays near 1.0
    # while raw delivery through the cut collapses.  A brief standby
    # crash inside the partition is the genuine (declared) downtime.
    "availability-probe": Scenario(
        topology=grid_topology(3),
        config=SystemConfig(stack=StackConfig(mac="csma"),
                            invariant_checking=True, observability=True),
        workloads=(AvailabilityProbe(),),
        faults=(FaultPlan()
                .partition(360.0, cut_x=CUT_X, heal_after_s=600.0)
                .crash(420.0, 5, recover_after_s=300.0)
                .crash(480.0, 8, recover_after_s=240.0)).clauses,
        formation_s=300.0,
        run_s=900.0,
    ),
    # A bounded stochastic crash/repair storm over the whole fleet (root
    # spared), drained at the window's edge.  The fault schedule itself
    # is seed-dependent, so seeds explore different crash interleavings
    # against the same invariants.  Stale routing state *during* the
    # storm is a fault consequence; the checkers still demand a clean
    # fleet after window + grace (DAO refresh plus persistence slack).
    "random-crashes": Scenario(
        topology=grid_topology(3),
        config=SystemConfig(stack=StackConfig(mac="csma",
                                              rpl=RplConfig(dao_period_s=60.0)),
                            invariant_checking=True, observability=True),
        faults=FaultPlan().random_crashes(300.0, duration_s=900.0,
                                          mtbf_s=1800.0, mttr_s=120.0,
                                          spare_root=True).clauses,
        grace_s=180.0,
        formation_s=240.0,
        run_s=1200.0,
    ),
    # The partition + border-router moves over the scheduled MAC with
    # an adaptive Trickle: *no checker changes* — the invariants are
    # MAC-agnostic.  A short (still prime) slotframe gives ~4 shared
    # broadcasts/s instead of 1, so nine nodes' DIO/RNFD traffic
    # outpaces the checkers' staleness windows (idle duty ~4%); RNFD
    # probes are paced to that capacity.  Formation is slower than over
    # CSMA (one shared minimal cell, 6P negotiation per unicast path),
    # and re-join pays slotframe rendezvous, hence the 600 s grace.
    "tsch-dependability": Scenario(
        topology=grid_topology(3),
        config=SystemConfig(
            stack=StackConfig(
                mac="tsch",
                mac_config=TschConfig(slotframe_slots=23),
                rnfd_enabled=True,
                rnfd=RnfdConfig(probe_period_s=30.0),
                rpl=RplConfig(dao_period_s=120.0,
                              trickle_variant="adaptive-imin"),
            ),
            invariant_checking=True,
        ),
        faults=(FaultPlan()
                .partition(660.0, cut_x=CUT_X, heal_after_s=600.0)
                .kill_border_router(2100.0, recover_after_s=600.0)).clauses,
        grace_s=600.0,
        formation_s=600.0,
        run_s=3300.0,
    ),
}
