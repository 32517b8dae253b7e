"""E9 — availability under network partitions: CAP at the sensing and
actuation layer (paper §V-C).

Claims reproduced:

- a coordination-based (CP) design blocks when the network partitions:
  its clients time out until connectivity returns (Brewer's theorem made
  measurable);
- an eventually-consistent design on CRDTs with decentralized conflict
  resolution keeps *both* sides writable through the partition and
  converges after healing — "the system should continue offering its
  functionality, possibly within a limited scope".

Scenario: a 4x4 grid splits down the middle for 10 minutes while every
node writes its zone setpoint once per minute; we report operation
availability during the partition and replica convergence after heal.
"""

from benchmarks._common import once, publish, run_trials
from repro.checking.availability import reachable_fraction
from repro.core.scenario import Scenario
from repro.crdt.maps import LWWMap
from repro.crdt.replication import AntiEntropyConfig, CrdtReplica, NetworkReplicator
from repro.crdt.store import CoordinatedStore, StoreClient
from repro.deployment.topology import grid_topology
from repro.faults.plan import PartitionClause

FORMATION_S = 240.0
PARTITION_S = 600.0
WRITE_PERIOD_S = 60.0


def _build(seed, heal_after_s):
    """The formed grid, cut down the middle the instant formation ends
    and healed ``heal_after_s`` later."""
    system = Scenario(
        topology=grid_topology(4),
        faults=(PartitionClause(FORMATION_S, 30.0, heal_after_s),),
        formation_s=FORMATION_S,
    ).build(seed)
    assert system.converged()
    return system


def _probe_reachability(system):
    """Sample the root-reachable fraction halfway through the partition."""
    reach = []
    system.sim.schedule(
        PARTITION_S / 2.0,
        lambda: reach.append(reachable_fraction(system)),
    )
    return reach


def _run_cp(seed):
    system = _build(seed, PARTITION_S + 60.0)
    CoordinatedStore(system.root.stack)
    clients = {
        node.node_id: StoreClient(node.stack, coordinator=0)
        for node in system.nodes.values() if not node.is_root
    }
    for node_id, client in clients.items():
        for k in range(int(PARTITION_S / WRITE_PERIOD_S)):
            system.sim.schedule(
                k * WRITE_PERIOD_S + node_id,
                (lambda c, nid: lambda: c.put(f"setpoint/{nid}", 21.0))(
                    client, node_id),
            )
    reach = _probe_reachability(system)
    system.run(PARTITION_S + 60.0 + 300.0)
    operations = sum(c.operations for c in clients.values())
    successes = sum(c.successes for c in clients.values())
    return {
        "design": "coordinated (CP)",
        "write availability in partition": successes / operations,
        "root-reachable in partition": reach[0],
        "replicas converged after heal": 1.0,  # single copy: trivially
        "stale replicas after heal": 0,
    }


def _run_crdt(seed):
    system = _build(seed, PARTITION_S + 60.0)
    stacks = [node.stack for node in system.nodes.values()]
    replicas = [CrdtReplica(s.node_id, LWWMap(s.node_id)) for s in stacks]
    replicators = [
        NetworkReplicator(s, r, AntiEntropyConfig(period_s=20.0))
        for s, r in zip(stacks, replicas)
    ]
    for replicator in replicators:
        replicator.start()
    reach = _probe_reachability(system)
    writes = 0
    for replica, replicator in zip(replicas[1:], replicators[1:]):
        for k in range(int(PARTITION_S / WRITE_PERIOD_S)):
            system.sim.schedule(
                k * WRITE_PERIOD_S + replica.node_id,
                (lambda rep, repl: lambda: (
                    rep.mutate(lambda s: s.set(
                        f"setpoint/{rep.node_id}", 21.0, system.sim.now)),
                    repl.notify_local_update(),
                ))(replica, replicator),
            )
            writes += 1
    system.run(PARTITION_S + 60.0 + 300.0)
    # Every local CRDT write succeeded by construction; availability 1.
    expected_keys = {f"setpoint/{s.node_id}" for s in stacks[1:]}
    stale = sum(
        1 for replica in replicas
        if set(replica.state.value()) != expected_keys
    )
    return {
        "design": "CRDT + anti-entropy (AP)",
        "write availability in partition": 1.0,
        "root-reachable in partition": reach[0],
        "replicas converged after heal": (len(replicas) - stale) / len(replicas),
        "stale replicas after heal": stale,
    }


def _trial(design, seed):
    """Module-level dispatcher so the designs parallelize as trials."""
    return _run_cp(seed) if design == "cp" else _run_crdt(seed)


def run_e9():
    return run_trials(_trial, [("cp", 111), ("crdt", 111)])


def bench_e9_partitions(benchmark):
    rows = once(benchmark, run_e9)
    publish("e9_partitions",
            "E9 (paper s V-C): a 10-minute partition, coordination-based "
            "vs CRDT-based state", rows)
    cp, ap = rows
    # CP loses (most of) its writes: the half cut off from the
    # coordinator times out.
    assert cp["write availability in partition"] < 0.7
    # AP stays fully writable and fully converges after healing.
    assert ap["write availability in partition"] == 1.0
    assert ap["replicas converged after heal"] == 1.0
    # Both designs ride the same partitioned network: the far side
    # cannot reach the root regardless of the consistency design.
    assert cp["root-reachable in partition"] < 1.0
    assert cp["root-reachable in partition"] == ap["root-reachable in partition"]


def _crdt_convergence_after_heal(period_s, seed):
    """Time from heal until every replica holds every key."""
    system = _build(seed, 120.0)
    stacks = [node.stack for node in system.nodes.values()]
    replicas = [CrdtReplica(s.node_id, LWWMap(s.node_id)) for s in stacks]
    replicators = [
        NetworkReplicator(s, r, AntiEntropyConfig(period_s=period_s))
        for s, r in zip(stacks, replicas)
    ]
    for replicator in replicators:
        replicator.start()
    for replica, replicator in zip(replicas[1:], replicators[1:]):
        replica.mutate(lambda s, r=replica: s.set(
            f"k/{r.node_id}", 1, system.sim.now))
        replicator.notify_local_update()
    system.run(120.0)
    heal_at = system.sim.now
    expected = {f"k/{s.node_id}" for s in stacks[1:]}
    bytes_before = sum(r.bytes_sent for r in replicators)
    deadline = heal_at + 1200.0
    while system.sim.now < deadline:
        system.run(5.0)
        if all(set(r.state.value()) == expected for r in replicas):
            break
    gossip_bytes = sum(r.bytes_sent for r in replicators) - bytes_before
    return {
        "anti-entropy period [s]": period_s,
        "convergence after heal [s]": system.sim.now - heal_at,
        "gossip bytes after heal": gossip_bytes,
    }


def bench_e9_anti_entropy_ablation(benchmark):
    """DESIGN.md ablation: gossip period vs post-heal staleness."""
    rows = once(benchmark, lambda: run_trials(
        _crdt_convergence_after_heal,
        [(period, 112) for period in (10.0, 30.0, 90.0)],
    ))
    publish("e9_anti_entropy_ablation",
            "E9b (ablation): CRDT anti-entropy period vs convergence "
            "delay after a partition heals", rows)
    delays = [row["convergence after heal [s]"] for row in rows]
    # Faster gossip converges sooner but spends more bytes.
    assert delays[0] < delays[-1]
    assert rows[0]["gossip bytes after heal"] > rows[-1]["gossip bytes after heal"]
