"""E2 — size scalability (paper §IV-A).

Claim reproduced: a *centralized* collection design concentrates load at
the nodes around the border router as the network grows (per-node
forwarding grows with N), while *decentralized in-network aggregation*
keeps the per-node cost constant — the redesign the paper says size
scaling eventually forces.

Series: grid side 3/5/7 (9 → 49 nodes), centralized raw collection vs
in-network AVG aggregation; reported per epoch.
"""

from benchmarks._common import once, publish, run_trials
from repro.aggregation.service import AggregationService, RawCollectionService
from repro.core.scenario import Scenario
from repro.core.system import SystemConfig
from repro.deployment.topology import grid_topology
from repro.devices.phenomena import DiurnalField
from repro.net.rpl.dodag import RplConfig
from repro.net.stack import StackConfig

EPOCH_S = 60.0
EPOCHS = 6
#: Periodic DAOs silenced so forwarding counts isolate application
#: traffic (DAOs still fire once on parent change, enough for routes).
_CONFIG = SystemConfig(stack=StackConfig(rpl=RplConfig(dao_period_s=1e6)))


def _build(side, seed):
    system = Scenario(topology=grid_topology(side), config=_CONFIG,
                      sensors=(("temp", DiurnalField(mean=20.0)),),
                      formation_s=240.0).build(seed)
    # Formation-time DAO forwarding is not part of the workload.
    for node in system.nodes.values():
        node.stack.stats.datagrams_forwarded = 0
    return system


def _busiest_forwarding(system):
    return max(
        node.stack.stats.datagrams_forwarded
        for node in system.nodes.values() if not node.is_root
    )


def _run_raw(side, seed):
    system = _build(side, seed)
    collectors = [RawCollectionService(node, root_id=0)
                  for node in system.nodes.values()]
    for collector in collectors:
        collector.start("temp", EPOCH_S)
    system.run(EPOCH_S * EPOCHS + 30.0)
    received = collectors[0].received
    complete = [len(v) for e, v in received.items() if e <= EPOCHS]
    coverage = (sum(complete) / len(complete) / (system.topology.size - 1)
                if complete else 0.0)
    return {
        "busiest_fwd_per_epoch": _busiest_forwarding(system) / EPOCHS,
        "coverage": coverage,
    }


def _run_agg(side, seed):
    system = _build(side, seed)
    services = [AggregationService(node) for node in system.nodes.values()]
    services[0].run_query("temp", "avg", epoch_s=EPOCH_S,
                          lifetime_epochs=EPOCHS)
    system.run(EPOCH_S * EPOCHS + 30.0)
    results = services[0].results
    steady = results[1:] if len(results) > 1 else results
    coverage = (sum(r.node_count for r in steady) / len(steady)
                / (system.topology.size)) if steady else 0.0
    return {
        "busiest_fwd_per_epoch": _busiest_forwarding(system) / EPOCHS,
        "coverage": coverage,
    }


def run_e2():
    sides = (3, 5, 7)
    # Independent (design, size, seed) trials: fan out under
    # REPRO_BENCH_JOBS, merge by index (order-identical to serial).
    raws = run_trials(_run_raw, [(side, 40 + side) for side in sides])
    aggs = run_trials(_run_agg, [(side, 40 + side) for side in sides])
    rows = []
    for side, raw, agg in zip(sides, raws, aggs):
        n = side * side
        rows.append({
            "nodes": n,
            "raw: busiest fwd/epoch": raw["busiest_fwd_per_epoch"],
            "raw: coverage": raw["coverage"],
            "agg: busiest fwd/epoch": agg["busiest_fwd_per_epoch"],
            "agg: coverage": agg["coverage"],
        })
    return rows


def bench_e2_size_scalability(benchmark):
    rows = once(benchmark, run_e2)
    publish("e2_size_scalability",
            "E2 (paper s IV-A): centralized collection vs in-network "
            "aggregation while the deployment grows", rows)
    small, large = rows[0], rows[-1]
    growth = large["nodes"] / small["nodes"]
    raw_growth = (large["raw: busiest fwd/epoch"]
                  / max(small["raw: busiest fwd/epoch"], 0.1))
    # Centralized: hotspot load tracks N.  Decentralized: ~flat.
    assert raw_growth > growth / 2
    assert large["agg: busiest fwd/epoch"] <= small["agg: busiest fwd/epoch"] + 3
    # Aggregation keeps (near-)complete coverage at every size.
    assert large["agg: coverage"] > 0.9


def _run_epoch(epoch_s, seed):
    """Aggregation epoch-length ablation over a fast-moving field."""
    from repro.devices.phenomena import RandomWalkField

    field = RandomWalkField(step_sigma=1.0, seed=seed)
    system = Scenario(topology=grid_topology(4), config=_CONFIG,
                      sensors=(("level", field),),
                      formation_s=240.0).build(seed)
    services = [AggregationService(node) for node in system.nodes.values()]
    errors = []

    def on_result(result):
        truth = field.value_at(result.finalized_at, (0.0, 0.0))
        errors.append(abs(result.value - truth))

    services[0].run_query("level", "avg", epoch_s=epoch_s,
                          lifetime_epochs=0, on_result=on_result)
    window = 1800.0
    system.run(window)
    records = sum(s.records_sent for s in services[1:])
    return {
        "epoch [s]": epoch_s,
        "records/node/hour": records / (len(services) - 1) / (window / 3600.0),
        "mean |error| at read time": (sum(errors[1:]) / len(errors[1:])
                                      if len(errors) > 1 else float("nan")),
    }


def bench_e2_epoch_ablation(benchmark):
    """DESIGN.md ablation: epoch length vs traffic and staleness error."""
    rows = once(benchmark, lambda: [
        _run_epoch(epoch, seed=45) for epoch in (30.0, 60.0, 180.0)
    ])
    publish("e2_epoch_ablation",
            "E2b (ablation): aggregation epoch length vs per-node traffic "
            "and result error against a drifting field", rows)
    # Longer epochs cost less traffic but read staler (more wrong) data.
    traffic = [row["records/node/hour"] for row in rows]
    assert traffic == sorted(traffic, reverse=True)
    assert rows[-1]["mean |error| at read time"] > rows[0][
        "mean |error| at read time"] * 0.8  # noisy, but not better
