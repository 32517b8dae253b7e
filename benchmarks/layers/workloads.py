"""The five workloads of the layered benchmark.

Each workload is a class with three phases the child process times
separately: ``setup(tick)`` (build, ``start()``, formation or cold pass,
load generators armed — everything ``setup_s`` charges), the timed
section (the caller advances ``sim`` to ``timed_until``: a fixed amount
of *simulated* work, so every simulated statistic is a pure function of
``(workload, seed, scale)``) and ``finish()`` (counts, simulated
metrics, correctness checks — untimed).  Long simulator runs go through
:func:`advance`, which calls ``tick`` between slices so the caller can
sample the host's speed while the work runs (see ``host.HostSpeed``).

Systems are constructed only through the pinned public ``repro``
surface listed in README.md; nothing here reaches into another
``benchmarks/*.py`` module.

``scale`` multiplies every *simulated duration* (never a node count):
1.0 is the issue's full-size timed section, ``DEFAULT_SCALE`` the one
the contract's time cap allows.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.aggregation.service import AggregationService
from repro.core.system import IIoTSystem, SystemConfig
from repro.crdt.maps import LWWMap
from repro.crdt.replication import AntiEntropyConfig, CrdtReplica, NetworkReplicator
from repro.deployment.topology import campus_topology, grid_topology
from repro.devices.phenomena import DiurnalField
from repro.middleware.coap.resource import CallbackResource
from repro.middleware.coap.server import CoapServer
from repro.middleware.coap.transport import CoapTransport
from repro.net.mac.tsch import TschConfig
from repro.net.stack import StackConfig
from repro.radio.medium import Frame, Medium, Radio
from repro.radio.propagation import LogDistanceModel
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceLog

from benchmarks.layers.host import rss_now_kb
from benchmarks.layers.stats import nearest_rank

#: Sim durations are the issue's full sizes times this factor: the
#: contract's cap (114 runs in 3420 s, several set-ups per run) leaves
#: ~3 s of timed section per repetition, a third of the issue's 7-10 s.
DEFAULT_SCALE = 1.0 / 3.0

#: Port the collect workloads' root listens on.
COLLECT_PORT = 7

Check = Tuple[bool, str]
Tick = Callable[[], None]


def advance(sim: Simulator, until: float, tick: Tick,
            slices: int = 100) -> float:
    """Run ``sim`` to ``until`` in equal sim-time slices, ``tick()``
    after each; returns the host seconds spent inside ``sim.run`` only.

    Slice boundaries fall between events, so the event order — and
    every simulated statistic — is that of one uninterrupted run.
    """
    start = sim.now
    wall_s = 0.0
    for i in range(1, slices + 1):
        began = time.perf_counter()
        sim.run(until=start + (until - start) * i / slices)
        wall_s += time.perf_counter() - began
        tick()
    return wall_s


def sim_digest(parts: Dict[str, Any]) -> str:
    """sha256 over the simulated outcome of one run."""
    blob = json.dumps(parts, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _latency_metrics(latencies_s: List[float]) -> Dict[str, Optional[float]]:
    ordered = sorted(latencies_s)
    # p95 only with >= 10 samples beyond it (choosing-metrics, sect. 1).
    p95 = nearest_rank(ordered, 95) if len(ordered) >= 200 else None
    p50 = nearest_rank(ordered, 50)
    return {
        "sim_latency_p50_ms": None if p50 is None else p50 * 1e3,
        "sim_latency_p95_ms": None if p95 is None else p95 * 1e3,
        "sim_latency_samples": len(ordered),
    }


class Workload:
    """Base: bookkeeping shared by all five workloads."""

    name = ""
    why = ""
    #: ``op_fail_ratio`` above this fails the run (listed in README.md;
    #: an order of magnitude above what any seed tried has shown).
    fail_ceiling = 0.0
    #: trace + spans + telemetry + checking on (grid_csma_observed only).
    observed = False
    #: Workload whose ops_per_s over this one's is ``obs.slowdown_x``.
    slowdown_reference: Optional[str] = None

    def __init__(self, seed: int, scale: float = DEFAULT_SCALE) -> None:
        self.seed = seed
        self.scale = scale
        self.attempted = 0
        self.completed = 0
        self.build_s = 0.0
        self.build_rss_kb = 0.0
        #: Sim time the timed section ends at; set by ``setup``.
        self.timed_until = 0.0

    # phases -----------------------------------------------------------
    def setup(self, tick: Tick) -> None:
        raise NotImplementedError

    def finish(self) -> Dict[str, Any]:
        raise NotImplementedError

    @property
    def sim(self) -> Simulator:
        raise NotImplementedError


# ----------------------------------------------------------------------
# campus_medium: 10 000 radios on a bare medium
# ----------------------------------------------------------------------
class CampusMedium(Workload):
    name = "campus_medium"
    why = ("bare Medium at N=10k: radio does ~all the work; set-up is the "
           "cold neighbourhood fill, the timed section the cache-hit path")

    BUILDINGS = 100
    NODES_PER_BUILDING = 100
    SENDERS = 1000
    GROUP = 8
    GROUP_PERIOD_S = 0.01
    STAGGER_S = 0.0004
    FRAME_BYTES = 50
    FULL_ROUNDS = 30

    def __init__(self, seed: int, scale: float = DEFAULT_SCALE,
                 buildings: Optional[int] = None,
                 senders: Optional[int] = None) -> None:
        super().__init__(seed, scale)
        self.buildings = buildings if buildings is not None else self.BUILDINGS
        self.n_senders = senders if senders is not None else self.SENDERS
        self.rounds = max(1, round(self.FULL_ROUNDS * scale))
        self.cca_busy = 0
        self.cold_s = 0.0
        self._sim: Optional[Simulator] = None
        self.medium: Optional[Medium] = None

    @property
    def sim(self) -> Simulator:
        assert self._sim is not None
        return self._sim

    def _send(self, radio: Radio) -> Callable[[], None]:
        medium = self.medium

        def send() -> None:
            if medium.carrier_busy(radio):
                self.cca_busy += 1
            self.attempted += 1
            frame = Frame(payload="p", size_bytes=self.FRAME_BYTES,
                          channel=radio.channel, sender=radio.node_id)
            medium.transmit(radio, frame, self._frame_done)
        return send

    def _frame_done(self) -> None:
        self.completed += 1

    def _schedule_rounds(self, rounds: int) -> float:
        """Schedule ``rounds`` passes over the senders; returns the end."""
        sim = self.sim
        groups = -(-len(self._senders) // self.GROUP)
        round_s = groups * self.GROUP_PERIOD_S
        base = sim.now + 0.001
        for r in range(rounds):
            for k, send in enumerate(self._senders):
                at = (base + r * round_s + (k // self.GROUP) * self.GROUP_PERIOD_S
                      + (k % self.GROUP) * self.STAGGER_S)
                sim.schedule_at(at, send)
        return base + rounds * round_s + 0.01

    def setup(self, tick: Tick) -> None:
        n = self.buildings * self.NODES_PER_BUILDING
        rss0 = rss_now_kb()
        t0 = time.perf_counter()
        topology = campus_topology(self.buildings, self.NODES_PER_BUILDING,
                                   seed=self.seed)
        self._sim = Simulator(seed=self.seed)
        model = LogDistanceModel(path_loss_exponent=3.5,
                                 shadowing_sigma_db=2.0, seed=self.seed)
        self.medium = Medium(self._sim, model, TraceLog(enabled=False))
        for node_id in topology.node_ids():
            radio = Radio(self.medium, node_id, topology.positions[node_id])
            radio.on_receive = _discard_frame
            radio.set_listening()
        self.build_s = time.perf_counter() - t0
        self.build_rss_kb = rss_now_kb() - rss0
        tick()
        # One seeded sender per block of n/senders consecutive ids:
        # spread over every building, yet drawn from the seed.
        rng = random.Random(self.seed)
        block = max(1, n // self.n_senders)
        ids = [min(n - 1, b * block + rng.randrange(block))
               for b in range(min(self.n_senders, n))]
        self._senders = [self._send(self.medium.radios[i]) for i in ids]
        # Round 0: every sender's first frame builds its neighbourhood.
        self.cold_s = advance(self.sim, self._schedule_rounds(1), tick)
        self.cold_frames = self.completed
        self.attempted = self.completed = 0
        self.cca_busy = 0
        self._events_before = self.sim.events_processed
        self._deliveries_before = sum(
            r.frames_received for r in self.medium.radios.values())
        self.timed_until = self._schedule_rounds(self.rounds)

    def finish(self) -> Dict[str, Any]:
        medium = self.medium
        radios = medium.radios
        received = [radios[i].frames_received for i in sorted(radios)]
        deliveries = sum(received) - self._deliveries_before
        grid = medium.grid_info()
        n = len(radios)
        checks: Dict[str, Check] = {
            "frames_finished": (self.completed == self.attempted,
                                f"{self.completed}/{self.attempted}"),
            "frames_delivered": (deliveries > 0, f"{deliveries} deliveries"),
            "spatial_index": (bool(grid["spatial_index"]),
                              f"{grid['cells']} cells"),
        }
        counts = {
            "sim.events": self.sim.events_processed - self._events_before,
            "radio.frames_tx": self.attempted,
            "radio.deliveries": deliveries,
            "radio.neighborhoods_built": grid["neighborhoods"],
            "radio.rssi_cache_entries": grid["rssi_cache"],
            "radio.grid_cells": grid["cells"],
            "radio.cold_frame_us": self.cold_s / max(1, self.cold_frames) * 1e6,
            "core.build_s": self.build_s,
            "core.node_kb": self.build_rss_kb / n,
        }
        return {
            "sim": dict(_latency_metrics([]), sim_duty_pct=None),
            "counts": counts,
            "checks": checks,
            "digest": sim_digest({
                "events": self.sim.events_processed,
                "received": hashlib.sha256(
                    json.dumps(received).encode()).hexdigest(),
                "deliveries": deliveries,
                "cca_busy": self.cca_busy,
            }),
        }


def _discard_frame(frame: Frame, rssi_dbm: float) -> None:
    """The campus radios' receive hook: delivery work ends at the PHY."""


# ----------------------------------------------------------------------
# full-stack grid workloads
# ----------------------------------------------------------------------
class _GridWorkload(Workload):
    """A ``grid_topology(side)`` IIoTSystem: build, form, run, count."""

    side = 0
    mac = "csma"
    formation_s = 240.0
    full_duration_s = 0.0

    def __init__(self, seed: int, scale: float = DEFAULT_SCALE,
                 side: Optional[int] = None) -> None:
        super().__init__(seed, scale)
        if side is not None:
            self.side = side
        self.duration_s = self.full_duration_s * scale
        self.system: Optional[IIoTSystem] = None
        self.latencies_s: List[float] = []
        self._before: Dict[str, float] = {}

    @property
    def sim(self) -> Simulator:
        return self.system.sim

    def mac_config(self) -> Optional[object]:
        return None

    def setup(self, tick: Tick) -> None:
        t0 = time.perf_counter()
        config = SystemConfig(
            stack=StackConfig(mac=self.mac, mac_config=self.mac_config()),
            trace_enabled=self.observed,
            observability=self.observed,
            telemetry_interval_s=10.0 if self.observed else None,
            invariant_checking=self.observed,
        )
        system = IIoTSystem.build(grid_topology(self.side), config=config,
                                  seed=self.seed)
        system.add_field_sensors("temp", DiurnalField(mean=20.0))
        self.system = system
        self.build_s = time.perf_counter() - t0
        system.start()
        self.attach_services()
        advance(system.sim, system.sim.now + self.formation_s, tick)
        self.joined_after_formation = system.joined_fraction()
        self.start_traffic()
        self._before = self._additive_counters()
        self.timed_until = system.sim.now + self.duration_s

    def attach_services(self) -> None:
        """Hook: bind sockets / create middleware before formation."""

    def start_traffic(self) -> None:
        """Hook: schedule the timed section's load generators."""
        raise NotImplementedError

    # counting -----------------------------------------------------------
    def _additive_counters(self) -> Dict[str, float]:
        """Cumulative public counters; the timed section reports deltas."""
        system = self.system
        nodes = list(system.nodes.values())
        c: Dict[str, float] = {
            "sim.events": system.sim.events_processed,
            "radio.frames_tx": sum(n.stack.radio.frames_sent for n in nodes),
            "radio.deliveries": sum(
                n.stack.radio.frames_received for n in nodes),
        }
        for field in ("tx_attempts", "tx_success", "acks_sent",
                      "queue_drops", "rx_duplicates"):
            c[f"net.mac.{field}"] = sum(
                getattr(n.stack.mac.stats, field) for n in nodes)
        stats = [n.stack.stats for n in nodes]
        c["net.stack.sent"] = sum(s.datagrams_sent for s in stats)
        c["net.stack.forwarded"] = sum(s.datagrams_forwarded for s in stats)
        c["net.stack.dropped"] = sum(
            s.datagrams_dropped_no_route + s.datagrams_dropped_ttl
            + s.datagrams_dropped_link for s in stats)
        c["net.stack.fragments_sent"] = sum(
            n.stack.frag.fragments_sent for n in nodes)
        c["net.stack.reassembly_failures"] = sum(
            n.stack.frag.reassembly_failures for n in nodes)
        c["net.rpl.dio_sent"] = sum(n.stack.rpl.dio_sent for n in nodes)
        c["net.rpl.dio_suppressed"] = sum(
            n.stack.rpl.trickle.suppressions for n in nodes)
        c["net.rpl.dao_sent"] = sum(n.stack.rpl.dao_sent for n in nodes)
        c["net.rpl.parent_changes"] = sum(
            n.stack.rpl.parent_changes for n in nodes)
        return c

    def extra_counts(self) -> Dict[str, Optional[float]]:
        return {}

    def extra_checks(self) -> Dict[str, Check]:
        return {}

    def extra_digest(self) -> Dict[str, Any]:
        return {}

    def finish(self) -> Dict[str, Any]:
        system = self.system
        nodes = [system.nodes[i] for i in sorted(system.nodes)]
        after = self._additive_counters()
        counts: Dict[str, Optional[float]] = {
            key: after[key] - self._before[key] for key in after}
        counts["net.rpl.joined_fraction"] = system.joined_fraction()
        grid = system.medium.grid_info()
        counts["radio.neighborhoods_built"] = grid["neighborhoods"]
        counts["radio.rssi_cache_entries"] = grid["rssi_cache"]
        counts["radio.grid_cells"] = grid["cells"]
        if self.mac == "tsch":
            counts["net.mac.tsch_cell_utilization"] = sum(
                n.stack.mac.cell_utilization() for n in nodes) / len(nodes)
        counts["core.build_s"] = self.build_s
        duty = sum(n.stack.mac.duty_cycle() for n in nodes) / len(nodes)
        violations: Optional[int] = None
        if system.checkers is not None:
            violations = len(system.checkers.finish())
            counts["checking.violations"] = violations
        if system.obs is not None:
            counts["obs.spans_stored"] = len(system.obs.spans)
        if system.telemetry is not None:
            counts["obs.telemetry_windows"] = system.telemetry.windows_closed
        counts.update(self.extra_counts())
        fail_ratio = 1.0 - self.completed / self.attempted
        checks: Dict[str, Check] = {
            "joined_after_formation": (
                self.joined_after_formation == 1.0,
                f"joined_fraction={self.joined_after_formation:.3f}"),
            "op_fail_ceiling": (
                fail_ratio <= self.fail_ceiling,
                f"op_fail_ratio={fail_ratio:.4f} <= {self.fail_ceiling}"),
        }
        if violations is not None:
            checks["no_invariant_violations"] = (
                violations == 0, f"{violations} violations")
        checks.update(self.extra_checks())
        sim_metrics = _latency_metrics(self.latencies_s)
        sim_metrics["sim_duty_pct"] = duty * 100.0
        digest = {
            "events": system.sim.events_processed,
            "delivered": [n.stack.stats.datagrams_delivered for n in nodes],
            "latency_sum": repr(sum(self.latencies_s)),
            "dio": after["net.rpl.dio_sent"],
            "dao": after["net.rpl.dao_sent"],
            "medium_deliveries": after["radio.deliveries"],
            "completed": self.completed,
            "attempted": self.attempted,
        }
        digest.update(self.extra_digest())
        return {"sim": sim_metrics, "counts": counts, "checks": checks,
                "digest": sim_digest(digest)}


class _Collect(_GridWorkload):
    """Upward convergecast: every node reports to the root on a period."""

    period_s = 30.0
    payload_bytes = 24
    #: No new sends this close to the end, so every datagram resolves.
    drain_s = 60.0

    def attach_services(self) -> None:
        self._seen: set = set()
        self.deliveries = 0
        self.system.root.stack.bind(COLLECT_PORT, self._on_report)

    def _on_report(self, datagram: Any) -> None:
        src, seq, sent_at = datagram.payload
        self.deliveries += 1
        key = (src, seq)
        if key in self._seen:
            return  # a MAC-retry duplicate reached the socket: not work
        self._seen.add(key)
        self.completed += 1
        self.latencies_s.append(self.sim.now - sent_at)

    def start_traffic(self) -> None:
        system = self.system
        sim = system.sim
        root_id = system.topology.root_id
        stop_at = sim.now + self.duration_s - self.drain_s
        rng = random.Random(self.seed)

        def reporter(stack: Any, phase: float) -> None:
            seq = 0

            def send() -> None:
                nonlocal seq
                if sim.now > stop_at:
                    return
                seq += 1
                self.attempted += 1
                stack.send_datagram(
                    root_id, COLLECT_PORT, (stack.node_id, seq, sim.now),
                    self.payload_bytes)
                sim.schedule(self.period_s, send)

            sim.schedule(phase, send)

        for node_id in sorted(system.nodes):
            if node_id != root_id:
                reporter(system.nodes[node_id].stack,
                         rng.uniform(0.0, self.period_s))

    def extra_counts(self) -> Dict[str, Optional[float]]:
        return {"net.stack.duplicate_deliveries":
                self.deliveries - self.completed}


class GridCsmaCollect(_Collect):
    name = "grid_csma_collect"
    why = ("8x8 CSMA/RPL convergecast, everything optional off: the typical "
           "experiment mix (radio/sim/mac/stack/rpl) every grid run is read "
           "against")
    side = 8
    full_duration_s = 5400.0
    fail_ceiling = 0.08


class GridTschCollect(_Collect):
    name = "grid_tsch_collect"
    why = ("5x5 TSCH: ~1900 kernel events per datagram, slot timers "
           "dominate; medium candidate-set work is bypassed")
    side = 5
    mac = "tsch"
    formation_s = 600.0
    full_duration_s = 1800.0
    period_s = 60.0
    fail_ceiling = 0.02

    def mac_config(self) -> Optional[object]:
        return TschConfig(slotframe_slots=23)


class GridCsmaObserved(_Collect):
    name = "grid_csma_observed"
    why = ("grid_csma_collect's scenario with trace+spans+telemetry+checking "
           "on: only obs/checking/sim.trace differ, so the ratio is the "
           "observability budget")
    side = 8
    full_duration_s = 1800.0
    fail_ceiling = 0.08
    observed = True
    slowdown_reference = "grid_csma_collect"


class GatewayServices(_GridWorkload):
    name = "gateway_services"
    why = ("4x4 CSMA with CoAP polling, CRDT anti-entropy and an AVG "
           "aggregation: the only run of middleware/crdt/aggregation/"
           "fragmentation and downward routing")
    side = 4
    full_duration_s = 2700.0
    fail_ceiling = 0.03

    SWEEP_S = 5.0
    WRITE_PERIOD_S = 30.0
    #: One shared 20-key map: every node writes round-robin over the same
    #: keys, so LWW resolution does real work and a full state is ~0.5 kB
    #: (multi-fragment) rather than growing with the node count.
    KEYS = 20
    QUIESCE_S = 120.0
    EPOCH_S = 30.0

    def attach_services(self) -> None:
        system = self.system
        self.transports: List[CoapTransport] = []
        for node in system.nodes.values():
            if node.is_root:
                continue
            transport = CoapTransport(node.stack)
            CoapServer(transport).add_resource(CallbackResource(
                "/sensors/temp",
                on_get=lambda n=node: (n.sensors["temp"].read(), 4)))
            self.transports.append(transport)
        self.client = system.gateway.client
        self.transports.append(system.gateway.transport)
        self.replicas: List[CrdtReplica] = []
        self.replicators: List[NetworkReplicator] = []
        for node_id in sorted(system.nodes):
            replica = CrdtReplica(node_id, LWWMap(node_id))
            self.replicas.append(replica)
            self.replicators.append(NetworkReplicator(
                system.nodes[node_id].stack, replica,
                AntiEntropyConfig(period_s=10.0)))
        self.services = {node_id: AggregationService(node)
                         for node_id, node in system.nodes.items()}

    def start_traffic(self) -> None:
        system = self.system
        sim = system.sim
        root_id = system.topology.root_id
        stop_at = sim.now + self.duration_s - self.QUIESCE_S
        rng = random.Random(self.seed)
        targets = [i for i in sorted(system.nodes) if i != root_id]
        gap_s = self.SWEEP_S / len(targets)
        cursor = 0

        def poll() -> None:
            nonlocal cursor
            if sim.now > stop_at:
                return
            target = targets[cursor % len(targets)]
            cursor += 1
            sent_at = sim.now
            self.attempted += 1

            def on_response(response: Any) -> None:
                if response is not None and response.code.is_success:
                    self.completed += 1
                    self.latencies_s.append(sim.now - sent_at)

            self.client.get(target, "/sensors/temp", on_response)
            sim.schedule(gap_s, poll)

        sim.schedule(gap_s, poll)

        def writer(replica: CrdtReplica, replicator: NetworkReplicator,
                   phase: float) -> None:
            writes = 0

            def write() -> None:
                nonlocal writes
                if sim.now > stop_at:
                    return
                key = f"k{(replica.node_id + writes) % self.KEYS}"
                value, now = writes, sim.now
                writes += 1
                replica.mutate(lambda s: s.set(key, value, now))
                replicator.notify_local_update()
                sim.schedule(self.WRITE_PERIOD_S, write)

            sim.schedule(phase, write)

        for replica, replicator in zip(self.replicas, self.replicators):
            replicator.start()
            writer(replica, replicator, rng.uniform(0.0, self.WRITE_PERIOD_S))
        self.services[root_id].run_query("temp", "avg", epoch_s=self.EPOCH_S)

    def _additive_counters(self) -> Dict[str, float]:
        c = super()._additive_counters()
        c["middleware.coap_requests"] = self.client.requests_sent
        c["middleware.coap_retransmissions"] = sum(
            t.retransmissions for t in self.transports)
        c["middleware.coap_timeouts"] = self.client.timeouts
        c["crdt.merges_in"] = sum(r.merges_in for r in self.replicas)
        c["crdt.merges_changed"] = sum(r.merges_changed for r in self.replicas)
        c["crdt.bytes_sent"] = sum(r.bytes_sent for r in self.replicators)
        c["aggregation.records_sent"] = sum(
            s.records_sent for s in self.services.values())
        return c

    def _coverage(self) -> float:
        results = self.services[self.system.topology.root_id].results
        steady = results[1:] if len(results) > 1 else results
        if not steady:
            return 0.0
        sensing = self.system.topology.size - 1  # the root has no sensor
        return sum(r.node_count for r in steady) / len(steady) / sensing

    def extra_counts(self) -> Dict[str, Optional[float]]:
        return {"aggregation.coverage": self._coverage()}

    def extra_checks(self) -> Dict[str, Check]:
        values = [r.state.value() for r in self.replicas]
        equal = all(v == values[0] for v in values[1:])
        coverage = self._coverage()
        return {
            "crdt_replicas_equal": (
                equal, f"{len(values[0])} keys on replica 0"),
            "aggregation_coverage": (
                coverage >= 0.9, f"coverage={coverage:.3f} >= 0.9"),
        }

    def extra_digest(self) -> Dict[str, Any]:
        return {
            "crdt": hashlib.sha256(json.dumps(
                sorted(self.replicas[0].state.value().items())
            ).encode()).hexdigest(),
            "agg_results": len(
                self.services[self.system.topology.root_id].results),
        }


WORKLOADS = {cls.name: cls for cls in (
    CampusMedium, GridCsmaCollect, GridTschCollect, GatewayServices,
    GridCsmaObserved)}
