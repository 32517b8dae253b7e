"""Cross-module scenarios: the paper's claims exercised end to end."""

import pytest

from repro.aggregation.service import AggregationService
from repro.core.system import IIoTSystem, SystemConfig
from repro.crdt.maps import LWWMap
from repro.crdt.replication import AntiEntropyConfig, CrdtReplica, NetworkReplicator
from repro.crdt import store as cp_store
from repro.crdt.store import CoordinatedStore, StoreClient
from repro.deployment.rollout import RolloutPlan
from repro.deployment.topology import (
    clustered_site_topology,
    grid_topology,
    line_topology,
)
from repro.devices.phenomena import DiurnalField
from repro.faults.plan import PartitionClause, install
from repro.net.rpl.dodag import RplConfig, RplState
from repro.net.rpl.rnfd import RnfdConfig
from repro.net.stack import StackConfig


class TestTelemetryPipeline:
    """Fig. 1, executed: field -> sensors -> aggregation -> storage tier."""

    def test_field_reaches_storage_through_all_tiers(self):
        system = IIoTSystem.build(grid_topology(4), seed=200)
        system.add_field_sensors("temp", DiurnalField(mean=18.0))
        system.start()
        system.run(180.0)
        assert system.converged()

        services = [AggregationService(node) for node in system.nodes.values()]
        root_service = services[0]

        def store(result):
            system.storage.append("building/avg_temp",
                                  result.finalized_at, result.value)

        root_service.run_query("temp", "avg", epoch_s=60.0,
                               lifetime_epochs=5, on_result=store)
        system.run(400.0)
        points = system.storage.query("building/avg_temp")
        assert len(points) >= 4
        # The diurnal field near t=0 sits around its mean + gradient.
        for _time, value in points[1:]:
            assert 15.0 < value < 25.0


class TestRnfdVersusBaseline:
    """E5's core contrast, as a correctness property: RNFD detection is
    orders of magnitude faster than the staleness baseline."""

    def _kill_root_and_measure(self, rnfd_enabled, seed=201):
        # A quiescent network (Koala-style local buffering: no periodic
        # upward traffic), so failure detection cannot piggyback on
        # data-plane feedback — the regime RNFD was designed for.
        config = SystemConfig(stack=StackConfig(
            mac="csma",
            rnfd_enabled=rnfd_enabled,
            rnfd=RnfdConfig(probe_period_s=10.0),
            rpl=RplConfig(staleness_timeout_s=1500.0, dao_period_s=1e6),
        ))
        system = IIoTSystem.build(grid_topology(4), config=config, seed=seed)
        system.start()
        system.run(300.0)
        assert system.converged()
        kill_time = system.sim.now
        aware_times = []
        system.trace.subscribe("rpl.detached", lambda record:
                               aware_times.append(record.time - kill_time))
        system.root.fail()
        system.run(3000.0)
        # Time until 90% of survivors knew (left the grounded DODAG).
        survivors = [n for n in system.nodes.values() if not n.is_root]
        detached_now = sum(
            1 for node in survivors
            if node.stack.rpl.state is not RplState.JOINED
            or not node.stack.rpl.grounded
        )
        return aware_times, detached_now, len(survivors)

    def test_rnfd_beats_staleness_by_an_order_of_magnitude(self):
        rnfd_times, rnfd_detached, n = self._kill_root_and_measure(True)
        base_times, base_detached, _ = self._kill_root_and_measure(False)
        assert rnfd_detached == n
        assert rnfd_times, "RNFD produced no detachments"
        rnfd_latest = max(rnfd_times)
        base_earliest = min(base_times) if base_times else float("inf")
        assert rnfd_latest * 5 < base_earliest


class TestCapUnderPartition:
    """E9's contrast: AP (CRDT) stays writable, CP blocks."""

    def test_crdt_available_cp_blocked_same_partition(self, monkeypatch):
        monkeypatch.setattr(cp_store, "REQUEST_TIMEOUT_S", 20.0)
        system = IIoTSystem.build(grid_topology(3), seed=202)
        system.start()
        system.run(180.0)
        stacks = [node.stack for node in system.nodes.values()]

        replicas = [CrdtReplica(s.node_id, LWWMap(s.node_id)) for s in stacks]
        replicators = [
            NetworkReplicator(s, r, AntiEntropyConfig(period_s=15.0))
            for s, r in zip(stacks, replicas)
        ]
        for replicator in replicators:
            replicator.start()
        CoordinatedStore(stacks[0])
        cp_client = StoreClient(stacks[8], coordinator=0)

        install(system, (PartitionClause(system.sim.now, 30.0,
                                         heal_after_s=120.0),))
        system.run(0.0)

        cp_results = []
        cp_client.put("setpoint", 21.0, lambda ok, v: cp_results.append(ok))
        replicas[8].mutate(lambda s: s.set("setpoint", 21.0, system.sim.now))
        replicators[8].notify_local_update()
        system.run(120.0)

        assert cp_results == [False]          # CP write blocked
        right_side = [r for s, r in zip(stacks, replicas)
                      if s.radio.position[0] >= 30.0]
        assert all(r.state.get("setpoint") == 21.0 for r in right_side)

        system.run(200.0)
        assert all(r.state.get("setpoint") == 21.0 for r in replicas)


class TestIncrementalRollout:
    """E13's property: each stage joins the running system unaided."""

    def test_three_stage_growth_keeps_converging(self):
        topology = clustered_site_topology(4, 5, seed=3)
        system = IIoTSystem.build(topology, seed=203)
        plan = RolloutPlan.geometric(topology, pilot_size=4,
                                     growth_factor=3,
                                     stage_interval_s=600.0)
        fractions = []

        def check(stage):
            def later():
                fractions.append((stage.name, system.joined_fraction()))
            system.sim.schedule(500.0, later)

        plan.execute(system.sim, system.activate, system.trace,
                     on_stage_complete=check)
        system.start([])  # boot the root only
        system.run(600.0 * len(plan.stages) + 600.0)
        assert len(fractions) == len(plan.stages)
        for name, fraction in fractions:
            assert fraction >= 0.9, (name, fraction)
        assert system.joined_fraction() == 1.0


class TestHeterogeneousMacs:
    """The same routing and app layers run over all three MAC families."""

    @pytest.mark.parametrize("mac", ["csma", "lpl", "rimac"])
    def test_stack_delivers_over_every_mac(self, mac):
        config = SystemConfig(stack=StackConfig(
            mac=mac,
            rpl=RplConfig(trickle_imin_s=4.0, trickle_doublings=7,
                          trickle_k=3),
        ))
        system = IIoTSystem.build(line_topology(4), config=config, seed=204)
        system.start()
        system.run(400.0)
        assert system.joined_fraction() == 1.0
        got = []
        system.root.stack.bind(7, lambda d: got.append(d.src))
        system.nodes[3].stack.send_datagram(0, 7, "x", 16)
        system.run(60.0)
        assert got == [3]
