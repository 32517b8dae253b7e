"""Built-in sweep scenarios: fault plans under full invariant checking.

Each scenario is a pure function of its seed with the signature the
:class:`~repro.checking.sweep.SeedSweepRunner` expects: build a system
with ``invariant_checking=True`` and ``trace_enabled=True`` (the tail a
repro bundle carries), install a :class:`~repro.faults.plan.FaultPlan`
(which a failing seed's bundle then carries), return the
:class:`~repro.checking.base.CheckerSuite`.  They cover the two fault
families the paper leans on hardest — network partitions (§V-C) and
border-router failure under RNFD (E5) — so sweeping them across seeds
exercises every layer's checkers against the nastiest schedules the
deterministic kernel can produce.

Kept out of ``repro.checking.__init__`` on purpose: scenarios import
half the codebase (system, CRDTs, faults), and the checking package must
stay importable from :mod:`repro.core.system` without cycles.
"""

from __future__ import annotations

from repro.checking.availability import AvailabilityChecker
from repro.checking.base import CheckerSuite
from repro.checking.crdt import CrdtLatticeChecker
from repro.checking.safety import ComfortEnvelopeChecker
from repro.core.system import IIoTSystem, SystemConfig
from repro.crdt.maps import LWWMap
from repro.crdt.replication import AntiEntropyConfig, CrdtReplica, NetworkReplicator
from repro.deployment.topology import grid_topology
from repro.devices.phenomena import DiurnalField
from repro.devices.sensors import SensorFault
from repro.faults.plan import FaultPlan
from repro.net.mac.tsch import TschConfig
from repro.net.rpl.dodag import RplConfig
from repro.net.rpl.rnfd import RnfdConfig
from repro.net.stack import StackConfig
from repro.safety.comfort import ComfortBand, OccupancySchedule
from repro.safety.controllers import BangBangController
from repro.safety.hvac import HvacZone, RemoteControlLoop, RemoteHvacController

#: The vertical cut used by :func:`partition_crdt_scenario` on grid(3)
#: (columns at x = 0, 20, 40 m): two columns left, one right.
_CUT_X = 30.0


def partition_crdt_scenario(seed: int) -> CheckerSuite:
    """Partition a gossiping CRDT deployment, write on both sides, heal.

    Stresses: RPL repair across the cut, CRDT lattice laws under
    concurrent divergent writes, and convergence after the heal.
    """
    config = SystemConfig(
        stack=StackConfig(mac="csma"),
        invariant_checking=True,
        trace_enabled=True,
    )
    system = IIoTSystem.build(grid_topology(3), config=config, seed=seed)
    suite = system.checkers
    crdt_checker = CrdtLatticeChecker(period_s=60.0)
    suite.add(crdt_checker)

    system.start()
    system.run(180.0)

    stacks = [node.stack for node in system.nodes.values()]
    replicas = [
        crdt_checker.watch(CrdtReplica(s.node_id, LWWMap(s.node_id)))
        for s in stacks
    ]
    replicators = [
        NetworkReplicator(s, r, AntiEntropyConfig(period_s=15.0))
        for s, r in zip(stacks, replicas)
    ]
    for replicator in replicators:
        replicator.start()
    system.run(60.0)

    FaultPlan().partition(system.sim.now, cut_x=_CUT_X,
                          heal_after_s=120.0).install(system)
    # Divergent writes on both sides of the cut (distinct keys, so the
    # converged value is the union regardless of LWW tie-breaking).  The
    # cut is the next event to run, so no gossip of these writes crosses it.
    for stack, replica in zip(stacks, replicas):
        side = "left" if stack.radio.position[0] < _CUT_X else "right"
        replica.mutate(
            lambda s, side=side, nid=stack.node_id:
            s.set(f"setpoint/{side}", float(nid), system.sim.now)
        )
    for _stack, replicator in zip(stacks, replicators):
        replicator.notify_local_update()
    system.run(120.0)  # the cut heals at the end of this window
    system.run(240.0)  # anti-entropy quiesces; convergence checked at finish
    return suite


def rnfd_root_failure_scenario(seed: int) -> CheckerSuite:
    """Crash the border router under RNFD; let it recover and re-root.

    Stresses: RNFD's collective sink-failure verdict, DODAG collapse and
    poisoning, floating-DODAG formation, and re-join after recovery —
    the regime with the highest historical risk of routing loops.
    """
    config = SystemConfig(
        stack=StackConfig(
            mac="csma",
            rnfd_enabled=True,
            rnfd=RnfdConfig(probe_period_s=10.0),
            rpl=RplConfig(dao_period_s=60.0),
        ),
        invariant_checking=True,
        trace_enabled=True,
    )
    system = IIoTSystem.build(grid_topology(3), config=config, seed=seed)
    suite = system.checkers

    system.start()
    system.run(240.0)

    FaultPlan().kill_border_router(system.sim.now + 10.0,
                                   recover_after_s=300.0).install(system)
    system.run(700.0)
    return suite


def hvac_safety_scenario(seed: int) -> CheckerSuite:
    """Remote-controlled HVAC zones through a declarative fault plan.

    Two zones are remote-controlled from the border router with a
    watchdog fallback; a :class:`~repro.faults.plan.FaultPlan` then
    crashes a zone node, partitions a zone away from its controller,
    sticks a zone sensor, and kills the border router.  The comfort
    envelope must hold *outside* the plan's declared fault windows —
    comfort lost while the system is healthy is a control bug.
    """
    config = SystemConfig(
        # RNFD so the border-router kill is *detected* (poisoned ranks)
        # rather than leaving stale ranks to trip the DODAG checker.
        stack=StackConfig(
            mac="csma",
            rnfd_enabled=True,
            rnfd=RnfdConfig(probe_period_s=10.0),
            rpl=RplConfig(dao_period_s=60.0),
        ),
        invariant_checking=True,
        trace_enabled=True,
        observability=True,
    )
    system = IIoTSystem.build(grid_topology(3), config=config, seed=seed)
    suite = system.checkers

    system.start()
    system.run(240.0)

    band = ComfortBand(20.0, 23.0)
    schedule = OccupancySchedule([(8.0, 18.0, 8)])
    outside = DiurnalField(mean=4.0, amplitude=6.0, gradient_per_m=0.0,
                           phase_s=-6 * 3600.0)
    controller = RemoteHvacController(system.root, trace=system.trace)
    zones = []
    loops = []
    for node_id in (4, 8):  # one per eventual partition side
        zone = HvacZone(system.nodes[node_id],
                        lambda t: outside.value_at(t, (0.0, 0.0)),
                        band, schedule=schedule, initial_temp_c=21.5)
        controller.manage(zone.name, BangBangController(band))
        loop = RemoteControlLoop(zone, system.topology.root_id,
                                 fallback_timeout_s=300.0)
        zone.start()
        loop.start()
        zones.append(zone)
        loops.append(loop)

    comfort = ComfortEnvelopeChecker(period_s=60.0, margin_c=1.0,
                                     settle_s=system.sim.now + 1800.0)
    for zone in zones:
        comfort.watch_zone(zone)
    suite.add(comfort)
    system.run(1800.0)

    start = system.sim.now
    plan = (
        FaultPlan()
        .crash(start + 600.0, 4, recover_after_s=900.0)
        .partition(start + 3600.0, cut_x=_CUT_X, heal_after_s=1800.0)
        .sensor_fault(start + 7200.0, 8, "zone_temp", SensorFault.STUCK,
                      clear_after_s=900.0)
        .kill_border_router(start + 9000.0, recover_after_s=600.0)
    )
    # Rooms re-heat far slower than networks re-join.
    plan.declare_windows(comfort, grace_s=1800.0)
    plan.install(system)
    system.run(12_000.0)
    return suite


def availability_probe_scenario(seed: int) -> CheckerSuite:
    """Service availability through a partition/crash cycle.

    The border router plus a standby endpoint on the far side of the
    cut keep both partition halves served, so service availability —
    the taxonomy's availability axis — stays near 1.0 while raw
    delivery through the cut collapses.  A brief standby-endpoint crash
    inside the partition window is the genuine (declared) downtime.
    """
    config = SystemConfig(
        stack=StackConfig(mac="csma"),
        invariant_checking=True,
        trace_enabled=True,
        observability=True,
    )
    system = IIoTSystem.build(grid_topology(3), config=config, seed=seed)
    suite = system.checkers

    system.start()
    system.run(300.0)

    start = system.sim.now
    standby = 8  # right of _CUT_X on grid(3)
    plan = (
        FaultPlan()
        .partition(start + 60.0, cut_x=_CUT_X, heal_after_s=600.0)
        .crash(start + 120.0, 5, recover_after_s=300.0)
        .crash(start + 180.0, standby, recover_after_s=240.0)
    )
    runtime = plan.install(system)
    availability = AvailabilityChecker(
        system,
        endpoints=[system.topology.root_id, standby],
        period_s=15.0,
        floor=0.6,
        settle_s=start,
        partitions=runtime.partitions,
    )
    plan.declare_windows(availability, grace_s=60.0)
    suite.add(availability)

    system.run(900.0)
    return suite


def random_crashes_scenario(seed: int) -> CheckerSuite:
    """A bounded stochastic crash/repair storm over the whole fleet.

    The :meth:`~repro.faults.plan.FaultPlan.random_crashes` clause runs
    exponential MTBF/MTTR cycles (root spared) inside a declared fault
    window, then drains — every node is repaired at the window's edge.
    Unlike the scripted scenarios above, the *fault schedule itself* is
    seed-dependent, so sweeping seeds explores genuinely different
    crash interleavings against the same invariants: routing state must
    stay loop-free through arbitrary departures, and the fleet must
    re-join after the storm.
    """
    config = SystemConfig(
        stack=StackConfig(
            mac="csma",
            rpl=RplConfig(dao_period_s=60.0),
        ),
        invariant_checking=True,
        trace_enabled=True,
        observability=True,
    )
    system = IIoTSystem.build(grid_topology(3), config=config, seed=seed)
    suite = system.checkers

    system.start()
    system.run(240.0)

    start = system.sim.now
    plan = (
        FaultPlan()
        .random_crashes(start + 60.0, duration_s=900.0,
                        mtbf_s=1800.0, mttr_s=120.0, spare_root=True)
    )
    # Stale routing state *during* the storm is a fault consequence;
    # the checkers still demand a clean fleet after window + grace
    # (grace covers DAO refresh, one period plus persistence slack).
    for checker in suite.checkers:
        if hasattr(checker, "declare_fault_window"):
            plan.declare_windows(checker, grace_s=180.0)
    plan.install(system)
    system.run(1200.0)  # storm (960 s past start) + re-join settle
    return suite


def tsch_dependability_scenario(seed: int) -> CheckerSuite:
    """The partition + border-router built-ins, over the scheduled MAC.

    Same fault moves as :func:`partition_crdt_scenario` and
    :func:`rnfd_root_failure_scenario`, but the whole fleet runs TSCH
    with an adaptive Trickle variant — the point being that *no checker
    changes*: the invariants are MAC-agnostic, and the scheduled stack
    (slotframe alignment, 6P cell negotiation, shared-cell contention)
    must satisfy them through a partition and a root kill exactly as
    CSMA does.  RNFD probes are paced down to fit the single shared
    minimal cell's broadcast capacity (~1 frame/slotframe).
    """
    config = SystemConfig(
        stack=StackConfig(
            mac="tsch",
            # A short (still prime) slotframe: ~4 shared broadcasts/s
            # instead of 1, sized so nine nodes' worth of DIO/RNFD
            # traffic propagates faster than the checkers' staleness
            # persistence windows.  Trades idle duty (~4%) for control
            # -plane headroom, as a dense industrial cell would.
            mac_config=TschConfig(slotframe_slots=23),
            rnfd_enabled=True,
            rnfd=RnfdConfig(probe_period_s=30.0),
            rpl=RplConfig(dao_period_s=120.0,
                          trickle_variant="adaptive-imin"),
        ),
        invariant_checking=True,
        trace_enabled=True,
    )
    system = IIoTSystem.build(grid_topology(3), config=config, seed=seed)
    suite = system.checkers

    system.start()
    # Scheduled-MAC formation is slower than CSMA: broadcasts share one
    # minimal cell, and unicast paths wait on 6P cell negotiation.
    system.run(600.0)

    start = system.sim.now
    plan = (
        FaultPlan()
        .partition(start + 60.0, cut_x=_CUT_X, heal_after_s=600.0)
        .kill_border_router(start + 1500.0, recover_after_s=600.0)
    )
    # Re-join over TSCH pays slotframe rendezvous plus renegotiated
    # cells on every repaired path; the windows get matching grace.
    for checker in suite.checkers:
        if hasattr(checker, "declare_fault_window"):
            plan.declare_windows(checker, grace_s=600.0)
    plan.install(system)
    system.run(3300.0)
    return suite


#: name -> scenario, for the CLI and the integration sweep.
BUILTIN_SCENARIOS = {
    "partition-crdt": partition_crdt_scenario,
    "rnfd-root-failure": rnfd_root_failure_scenario,
    "hvac-safety": hvac_safety_scenario,
    "availability-probe": availability_probe_scenario,
    "random-crashes": random_crashes_scenario,
    "tsch-dependability": tsch_dependability_scenario,
}
