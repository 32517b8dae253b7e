"""Construction site: incremental rollout, multi-tenant spectrum, and
shared state between contractors.

Runs in under a minute::

    python examples/construction_site.py

What it shows (paper sections in brackets):

1. the deployment grows in place from a 3-node pilot to 40+ devices over
   staged rollouts, converging at every stage [§IV, size scalability];
2. another contractor's Wi-Fi backhaul appears mid-project and degrades
   telemetry until the network retunes its channel [§IV-C,
   administrative scalability];
3. two contractors share an equipment-checkout ledger as a replicated
   CRDT — it keeps accepting updates on both sides of a connectivity
   gap and converges when the gap closes [§IV-B, §V-C].
"""

from repro.core.scenario import Rollout, Scenario
from repro.core.system import SystemConfig
from repro.core.workloads import Probe
from repro.crdt.replication import (
    AntiEntropyConfig,
    CrdtReplica,
    NetworkReplicator,
)
from repro.crdt.sets import ORSet
from repro.deployment.topology import clustered_site_topology
from repro.faults.plan import InterferenceClause, PartitionClause, install
from repro.net.stack import StackConfig


def main() -> None:
    topology = clustered_site_topology(clusters=6, nodes_per_cluster=7,
                                       site_span_m=140.0,
                                       radio_range_m=30.0, seed=4)
    rollout = Rollout(pilot_size=3, growth_factor=4, stage_interval_s=600.0)
    stages = rollout.plan(topology).stages
    print(f"site plan: {topology.size} devices in {len(stages)} stages")

    # --- staged rollout ------------------------------------------------
    system = Scenario(
        topology=topology,
        config=SystemConfig(stack=StackConfig(mac="csma", channel=18)),
        rollout=rollout,
        workloads=(Probe(size=8),),
    ).build(13)
    probe = system.workloads[0]

    def probe_delivery(sources):
        """One probe from each source node; the fraction delivered."""
        probe.delivered.clear()
        probe.burst([node.node_id for node in sources])
        system.run(60.0)
        return len({src for src, _ in probe.delivered}) / max(len(sources), 1)

    for stage in stages:
        # Measure just before the next stage activates, so the report
        # reflects a settled stage rather than freshly-booted nodes.
        system.run(590.0)
        print(f"  {stage.name}: {len(system.active_nodes())} active, "
              f"{system.joined_fraction():.0%} joined")
        system.run(10.0)

    active = [n for n in system.active_nodes() if not n.is_root]
    print(f"pre-interference probe delivery: "
          f"{probe_delivery(active[-8:]):.0%}")

    # --- another tenant moves in ---------------------------------------
    print("a contractor's Wi-Fi (channel 6) goes live next to the site...")
    # Three access points, on air from now until well past the end.
    install(system, [
        InterferenceClause(system.sim.now, 3600.0, (40.0 + 40.0 * i, 8.0),
                           wifi_channel=6, duty_cycle=0.35,
                           tx_power_dbm=16.0, node_id=900 + i)
        for i in range(3)
    ])
    degraded = probe_delivery(active[-8:])
    print(f"  probe delivery with co-located Wi-Fi: {degraded:.0%}")

    print("site retunes to 802.15.4 channel 26 (outside the Wi-Fi mask)...")
    for node in system.nodes.values():
        node.stack.radio.channel = 26
    system.run(120.0)
    recovered = probe_delivery(active[-8:])
    print(f"  probe delivery after retune: {recovered:.0%}")

    # --- shared equipment ledger across contractors ---------------------
    ledger = {}
    replicators = {}
    for node in system.active_nodes():
        replica = CrdtReplica(node.node_id, ORSet(node.node_id))
        ledger[node.node_id] = replica
        replicator = NetworkReplicator(
            node.stack, replica, AntiEntropyConfig(period_s=20.0))
        replicator.start()
        replicators[node.node_id] = replicator

    east = active[-1].node_id
    west = active[0].node_id
    install(system, (PartitionClause(system.sim.now, 70.0,
                                     heal_after_s=240.0),))
    print("trenching cuts the site in half; both offices keep working:")
    ledger[west].mutate(lambda s: s.add("excavator-1 checked out"))
    replicators[west].notify_local_update()
    ledger[east].mutate(lambda s: s.add("crane-2 checked out"))
    replicators[east].notify_local_update()
    system.run(240.0)
    print(f"  west office sees: {sorted(ledger[west].state.value())}")
    print(f"  east office sees: {sorted(ledger[east].state.value())}")

    system.run(400.0)
    values = {frozenset(replica.state.value()) for replica in ledger.values()}
    print(f"link restored: all {len(ledger)} replicas agree: "
          f"{len(values) == 1}; ledger = {sorted(next(iter(values)))}")


if __name__ == "__main__":
    main()
