"""A2 — objective-function ablation: MRHOF vs OF0 on lossy links.

The paper's §V-D: protocols are self-organizing "but they often require
expertise when configured for individual deployments" (ref [45]).  The
objective function is the sharpest such choice: OF0 counts hops and is
blind to link quality, so on a realistic lossy topology it happily picks
long, marginal links; MRHOF weighs ETX and routes around them.

Scenario: a random 20-node field with log-distance links (wide
transitional region), CBR telemetry from the five farthest nodes; both
objective functions run on the same shadowing realisation, one
realisation per seed in :data:`SEEDS`.  The claim is read on the median
over seeds and on the fraction of seeds it holds on — not at one pinned
seed: a realisation that cuts the root's good links congestion-collapses
*both* objectives, and how often that happens is part of the result
(EXPERIMENTS.md, A2: fragile).
"""

from statistics import median

from benchmarks._common import once, publish, run_sweep
from repro.core.scenario import Scenario
from repro.core.system import SystemConfig
from repro.core.workloads import Probe
from repro.deployment.topology import random_topology
from repro.net.stack import StackConfig
from repro.radio.propagation import LogDistanceModel

PACKETS = 50
PERIOD_S = 4.0
SEEDS = tuple(range(1, 9))
#: A majority.  Seeds 6 and 8 collapse under both objectives (either
#: delivers under 45 %): the realisation, not the objective, decides.
MIN_SEEDS_HELD = 5


def _link_model(seed):
    # Links are good short, marginal long: exactly where OF0 goes wrong.
    return LogDistanceModel(
        path_loss_exponent=3.0,
        shadowing_sigma_db=3.0,
        sensitivity_dbm=-87.0,
        transition_width_db=2.5,
        seed=seed,
    )


def _run(objective, seed):
    topology = random_topology(20, area_m=90.0, radio_range_m=30.0, seed=5)
    positions = topology.positions
    farthest = sorted(
        (nid for nid in topology.node_ids() if nid != topology.root_id),
        key=lambda nid: positions[nid][0] ** 2 + positions[nid][1] ** 2,
    )[-5:]
    scenario = Scenario(
        topology=topology,
        config=SystemConfig(stack=StackConfig(mac="csma", objective=objective)),
        link_model=_link_model(seed),
        workloads=(Probe(sources=tuple(farthest), count=PACKETS,
                         period_s=PERIOD_S),),
        formation_s=600.0,
        run_s=PACKETS * PERIOD_S + 120.0,
    )
    system = scenario.build(seed)
    tx_before = sum(n.stack.radio.frames_sent for n in system.nodes.values())
    system.run(scenario.run_s)
    tx_used = sum(
        n.stack.radio.frames_sent for n in system.nodes.values()
    ) - tx_before
    probe = system.workloads[0]
    return {
        "delivery": probe.delivery(),
        "tx/delivered": tx_used / max(len(probe.delivered), 1),
        "parent ETX": _mean_parent_etx(system),
    }


def _mean_parent_etx(system):
    values = []
    for node in system.nodes.values():
        router = node.stack.rpl
        if router.preferred_parent is None:
            continue
        entry = router.neighbors.get(router.preferred_parent)
        if entry is not None:
            values.append(1.0 / max(
                system.medium.link_prr(node.node_id, router.preferred_parent),
                1e-3,
            ))
    return sum(values) / len(values) if values else float("nan")


def _both(seed, _trial_seed):
    """One sweep trial: both objectives at ``seed`` (the sweep's own
    derived seed is not used — the seed *is* the swept parameter)."""
    return {f"{objective} {name}": value
            for objective in ("mrhof", "of0")
            for name, value in _run(objective, seed).items()}


def _holds(row):
    """The paper's claim on one row: OF0's hop-count blindness picks
    worse links, which costs delivery and retransmission energy."""
    return (row["of0 parent ETX"] > row["mrhof parent ETX"]
            and row["mrhof delivery"] > row["of0 delivery"] + 0.1
            and row["mrhof tx/delivered"] < row["of0 tx/delivered"] / 2
            and row["mrhof delivery"] > 0.75)


def run_a2():
    rows = run_sweep("seed", SEEDS, _both, repetitions=1).rows()
    rows.append({"seed": "median", **{
        column: median(row[column] for row in rows)
        for column in rows[0] if column != "seed"}})
    for row in rows:
        row["holds"] = _holds(row)
    return rows


def bench_a2_objective_functions(benchmark):
    rows = once(benchmark, run_a2)
    held = sum(row["holds"] for row in rows[:-1])
    publish("a2_objective_functions",
            "A2 (ablation, paper s V-D): MRHOF vs OF0 parent selection "
            f"on lossy links -- holds on {held}/{len(SEEDS)} seeds", rows)
    assert rows[-1]["holds"]
    assert held >= MIN_SEEDS_HELD
