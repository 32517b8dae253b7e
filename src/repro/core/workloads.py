"""Workloads: what a :class:`~repro.core.scenario.Scenario` runs on its
formed network.

A workload is a frozen parameter dataclass registered in
:data:`WORKLOADS` by its ``kind`` (the shape of ``_MAC_REGISTRY``).
Its :class:`Driver` is made before the nodes start; ``formed()`` runs
when formation ends, before the fault plan is installed, and
``faults_installed(plan, runtime)`` right after the plan is installed.
Only drivers that replace hand-written code exist: ``probe`` (the
experiments' delivery and latency probe), the bespoke parts of the
``partition-crdt``, ``hvac-safety`` and ``availability-probe`` built-ins,
and ``demo`` (the dashboard's traffic).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, ClassVar, List, Optional, Set, Tuple

from repro.aggregation.service import AggregationService
from repro.checking.availability import AvailabilityChecker
from repro.checking.crdt import CrdtLatticeChecker
from repro.checking.safety import ComfortEnvelopeChecker
from repro.crdt.counters import GCounter
from repro.crdt.maps import LWWMap
from repro.crdt.replication import (
    AntiEntropyConfig,
    CrdtReplica,
    NetworkReplicator,
)
from repro.devices.phenomena import DiurnalField
from repro.middleware.coap.client import CoapClient
from repro.middleware.coap.resource import CallbackResource
from repro.middleware.coap.server import CoapServer
from repro.middleware.coap.transport import CoapTransport
from repro.obs.health import NodeHealthSampler
from repro.safety.comfort import ComfortBand, OccupancySchedule
from repro.safety.controllers import BangBangController
from repro.safety.hvac import HvacZone, RemoteControlLoop, RemoteHvacController

#: Kernel priority of a step that runs once everything already queued
#: for its instant has run — what code placed after
#: ``system.run(until=t)`` sees.  Protocol events use priority 0 and
#: TSCH slot events negative ones.
AFTER_INSTANT = 1

#: The root port every probe datagram goes to.
PROBE_PORT = 7

#: The vertical cut of the partition built-ins on grid(3) (columns at
#: x = 0, 20, 40 m): two columns left, one right.
CUT_X = 30.0


class Driver:
    """A workload's run-time side; both hooks default to doing nothing."""

    def __init__(self, system, workload, scenario) -> None:
        self.system = system
        self.workload = workload
        self.scenario = scenario

    def formed(self) -> None:
        """Formation has ended (runs before the fault plan is installed)."""

    def faults_installed(self, plan, runtime) -> None:
        """The scenario's fault plan was installed just now."""


class Workload:
    """Base of the workload parameter classes."""

    kind: ClassVar[str]
    driver: ClassVar[type]

    def attach(self, system, scenario) -> Driver:
        """This workload's driver on ``system``."""
        return self.driver(system, self, scenario)


# ----------------------------------------------------------------------
# probe
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Probe(Workload):
    """Upward datagrams to the root, scheduled when formation ends.

    Each source sends ``count`` reports ``period_s`` apart (the payload
    is the report's index), source ``i`` offset by ``i * stagger_s``:
    independent sensors are not phase-locked, and sending every source at
    the same instant measures the MAC's synchronized-collision worst case
    instead of delivery.  Each report goes out ``copies`` times 1 s
    apart — back-to-back duplicates would self-collide along a chain.
    """

    kind: ClassVar[str] = "probe"
    sources: Tuple[int, ...] = ()
    count: int = 0
    period_s: float = 0.0
    stagger_s: float = 0.0
    copies: int = 1
    size: int = 16


class ProbeRun(Driver):
    """One probe on one system: what reached the root, and how fast."""

    def __init__(self, system, probe: Probe, scenario=None) -> None:
        super().__init__(system, probe, scenario)
        #: (source, payload) of every probe datagram the root received.
        self.delivered: Set[Tuple[int, Any]] = set()
        #: End-to-end latency of every datagram delivered on the port.
        self.latencies: List[float] = []

    def formed(self) -> None:
        """Bind the root's port and schedule every report from now."""
        system, probe = self.system, self.workload
        root = system.root.stack
        root.unbind(PROBE_PORT)
        root.bind(PROBE_PORT, lambda d: self.delivered.add((d.src, d.payload)))
        system.trace.subscribe("net.delivered", self._on_delivered)
        for order, node_id in enumerate(probe.sources):
            send = system.nodes[node_id].stack.send_datagram
            for k in range(probe.count):
                for copy in range(probe.copies):
                    system.sim.schedule(
                        k * probe.period_s + order * probe.stagger_s + copy * 1.0,
                        functools.partial(send, system.topology.root_id,
                                          PROBE_PORT, k, probe.size))

    def _on_delivered(self, record) -> None:
        if (record.node == self.system.topology.root_id
                and record.data["port"] == PROBE_PORT):
            self.latencies.append(record.data["latency"])

    def burst(self, node_ids) -> None:
        """One datagram from each of ``node_ids``, sent now."""
        for node_id in node_ids:
            self.system.nodes[node_id].stack.send_datagram(
                self.system.topology.root_id, PROBE_PORT, 0, self.workload.size)

    def delivery(self) -> float:
        """Fraction of the scheduled reports the root received."""
        probe = self.workload
        return len(self.delivered) / (len(probe.sources) * probe.count)


Probe.driver = ProbeRun


# ----------------------------------------------------------------------
# the built-in sweep scenarios' bespoke parts
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PartitionCrdt(Workload):
    """Gossiping LWW-map replicas on every node under the CRDT checker,
    and one divergent write on each side of the cut the plan applies."""

    kind: ClassVar[str] = "partition-crdt"


class _PartitionCrdtRun(Driver):
    def __init__(self, system, workload, scenario) -> None:
        super().__init__(system, workload, scenario)
        self.checker = system.checkers.add(CrdtLatticeChecker(period_s=60.0))

    def formed(self) -> None:
        self.stacks = [node.stack for node in self.system.nodes.values()]
        self.replicas = [
            self.checker.watch(CrdtReplica(s.node_id, LWWMap(s.node_id)))
            for s in self.stacks
        ]
        self.replicators = [
            NetworkReplicator(s, r, AntiEntropyConfig(period_s=15.0))
            for s, r in zip(self.stacks, self.replicas)
        ]
        for replicator in self.replicators:
            replicator.start()

    def faults_installed(self, plan, runtime) -> None:
        # Distinct keys per side, so the converged value is the union
        # regardless of LWW tie-breaking.  The cut is the next event to
        # run, so no gossip of these writes crosses it.
        sim = self.system.sim
        for stack, replica in zip(self.stacks, self.replicas):
            side = "left" if stack.radio.position[0] < CUT_X else "right"
            replica.mutate(
                lambda s, side=side, nid=stack.node_id:
                s.set(f"setpoint/{side}", float(nid), sim.now)
            )
        for replicator in self.replicators:
            replicator.notify_local_update()


PartitionCrdt.driver = _PartitionCrdtRun


@dataclass(frozen=True)
class HvacSafety(Workload):
    """Two zones (nodes 4 and 8, one per side of the cut) controlled
    from the border router with a watchdog fallback, under the comfort
    envelope checker.  It settles for 1800 s and excuses the plan's
    windows plus 1800 s: rooms re-heat far slower than networks re-join.
    """

    kind: ClassVar[str] = "hvac-safety"


class _HvacSafetyRun(Driver):
    def formed(self) -> None:
        system = self.system
        band = ComfortBand(20.0, 23.0)
        schedule = OccupancySchedule([(8.0, 18.0, 8)])
        outside = DiurnalField(mean=4.0, amplitude=6.0, gradient_per_m=0.0,
                               phase_s=-6 * 3600.0)
        controller = RemoteHvacController(system.root, trace=system.trace)
        zones = []
        for node_id in (4, 8):
            zone = HvacZone(system.nodes[node_id],
                            lambda t: outside.value_at(t, (0.0, 0.0)),
                            band, schedule=schedule, initial_temp_c=21.5)
            controller.manage(zone.name, BangBangController(band))
            loop = RemoteControlLoop(zone, system.topology.root_id,
                                     fallback_timeout_s=300.0)
            zone.start()
            loop.start()
            zones.append(zone)
        self.comfort = ComfortEnvelopeChecker(period_s=60.0, margin_c=1.0,
                                              settle_s=system.sim.now + 1800.0)
        for zone in zones:
            self.comfort.watch_zone(zone)
        system.checkers.add(self.comfort)

    def faults_installed(self, plan, runtime) -> None:
        plan.declare_windows(self.comfort, grace_s=1800.0)


HvacSafety.driver = _HvacSafetyRun


@dataclass(frozen=True)
class AvailabilityProbe(Workload):
    """Service availability sampled every 15 s from the plan's install
    on: the border router plus a standby endpoint (node 8, right of the
    cut) serve both halves, the floor is 0.6, and the plan's windows
    plus 60 s are excused."""

    kind: ClassVar[str] = "availability-probe"


class _AvailabilityRun(Driver):
    def faults_installed(self, plan, runtime) -> None:
        system = self.system
        checker = AvailabilityChecker(
            system,
            endpoints=[system.topology.root_id, 8],
            period_s=15.0,
            floor=0.6,
            settle_s=system.sim.now,
            partitions=runtime,
        )
        plan.declare_windows(checker, grace_s=60.0)
        system.checkers.add(checker)


AvailabilityProbe.driver = _AvailabilityRun


# ----------------------------------------------------------------------
# the dashboard demo
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Demo(Workload):
    """The dashboard's traffic over the run's ``run_s``: every non-root
    node serves its ``temp`` sensor over CoAP and the root polls each
    once, spread over the first half; an AVG aggregation query; a
    gossiped GCounter; node-health sampling.  When the run ends, the
    sampler takes a last sample and every node's duty cycle is frozen
    into a ``radio.duty_cycle`` gauge."""

    kind: ClassVar[str] = "demo"


class DemoRun(Driver):
    """Everything one demo run produced (what ``repro report`` renders)."""

    def __init__(self, system, workload, scenario) -> None:
        super().__init__(system, workload, scenario)
        self.requests_sent = 0
        self.responses = 0
        self.failures = 0
        #: Trace ids of requests that were answered, in completion order.
        self.answered_traces: List[int] = []
        self.health: Optional[NodeHealthSampler] = None
        self.agg_results: List = []

    def formed(self) -> None:
        system, traffic_s = self.system, self.scenario.run_s
        for node in system.nodes.values():
            if node.is_root:
                continue
            server = CoapServer(CoapTransport(node.stack))
            server.add_resource(CallbackResource(
                "/temp", on_get=lambda n=node: (n.sensors["temp"].read(), 4)))
        client = CoapClient(CoapTransport(system.root.stack))

        services = {nid: AggregationService(node)
                    for nid, node in system.nodes.items()}
        services[system.topology.root_id].run_query(
            "temp", "avg", epoch_s=max(20.0, traffic_s / 4.0),
            on_result=self.agg_results.append,
        )
        replicators = {}
        for nid, node in system.nodes.items():
            replica = CrdtReplica(nid, GCounter(nid))
            replicators[nid] = NetworkReplicator(node.stack, replica)
            replicators[nid].start()
            replica.mutate(lambda s: s.increment())
            replicators[nid].notify_local_update()

        # Explicitly attached: the sampler schedules events, so it is
        # never implied by observability=True alone.
        self.health = NodeHealthSampler(system, replicators=replicators)
        self.health.start()

        spans = system.obs.spans

        def poll(node_id: int) -> None:
            before = set(spans.trace_ids())

            def on_response(response) -> None:
                if response is None:
                    self.failures += 1
                    return
                self.responses += 1
                new = [t for t in spans.trace_ids() if t not in before]
                if new:
                    self.answered_traces.append(new[0])

            client.get(node_id, "/temp", on_response)
            self.requests_sent += 1

        targets = sorted(nid for nid in system.nodes
                         if nid != system.topology.root_id)
        interval = max(1.0, traffic_s / (2 * max(1, len(targets))))
        for index, node_id in enumerate(targets):
            system.sim.schedule(index * interval, lambda n=node_id: poll(n))
        system.sim.schedule_at(system.sim.now + traffic_s, self._freeze,
                               AFTER_INSTANT)

    def _freeze(self) -> None:
        """Freeze end-of-run levels into the registry as gauges."""
        self.health.sample_once()
        registry = self.system.obs.registry
        for node_id in sorted(self.system.nodes):
            registry.set("radio.duty_cycle",
                         self.system.nodes[node_id].stack.mac.duty_cycle(),
                         node=node_id)


Demo.driver = DemoRun


#: kind -> workload class: the ``repro.scenario/1`` codec's registry.
WORKLOADS = {cls.kind: cls for cls in (
    Probe, PartitionCrdt, HvacSafety, AvailabilityProbe, Demo)}
