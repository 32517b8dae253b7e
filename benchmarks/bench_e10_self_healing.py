"""E10 — maintainability: self-organization and self-healing (paper §V-D).

Claims reproduced:

- the routing layer is self-organizing: after a batch of node failures
  the survivors re-converge with no operator action;
- but "they often require expertise when configured for individual
  deployments" (ref [45]): the Trickle Imin ablation shows the repair
  speed / beacon overhead tradeoff that the integrator must tune;
- "little work has been done on automated diagnosis": the sensor-fault
  half shows a simple root-side diagnoser localizing a stuck sensor.

Scenario: a 5x5 grid loses 5 random interior nodes at once; we measure
time until ≥95% of survivors are re-joined, and DIO traffic, per Trickle
Imin.  Then a stuck-at sensor fault is planted and diagnosed.
"""

from benchmarks._common import assert_no_violations, once, publish, run_trials
from repro.aggregation.service import RAW_PORT, RawCollectionService
from repro.core.scenario import Scenario
from repro.core.system import SystemConfig
from repro.deployment.topology import grid_topology
from repro.devices.phenomena import DiurnalField
from repro.faults.plan import CrashClause, SensorClause
from repro.net.rpl.dodag import RplConfig, RplState
from repro.net.stack import StackConfig

KILLED = (6, 8, 12, 16, 18)
FORMATION_S = 400.0
PROBE_PERIOD = 30.0


def _run_recovery(imin, seed):
    config = SystemConfig(
        stack=StackConfig(
            mac="csma",
            rpl=RplConfig(trickle_imin_s=imin, trickle_doublings=8,
                          trickle_k=5),
        ),
        invariant_checking=True,
    )
    # The five nodes crash the instant formation ends.
    system = Scenario(topology=grid_topology(5), config=config,
                      faults=tuple(CrashClause(FORMATION_S, node_id)
                                   for node_id in KILLED),
                      formation_s=FORMATION_S).build(seed)
    assert system.converged()

    # Steady upward traffic so failures are noticed at the data plane.
    for node in system.nodes.values():
        if node.is_root:
            continue
        for k in range(200):
            system.sim.schedule(
                k * PROBE_PERIOD + node.node_id % 17,
                (lambda s: lambda: s.send_datagram(0, 7, "hb", 8)
                 if s.alive else None)(node.stack),
            )
    system.root.stack.bind(7, lambda d: None)

    dio_before = sum(n.stack.rpl.dio_sent for n in system.nodes.values())
    kill_time = system.sim.now
    survivors = [
        n for n in system.nodes.values()
        if n.node_id not in KILLED and not n.is_root
    ]
    need = int(0.95 * len(survivors))
    recovered_at = None
    step = 10.0
    deadline = kill_time + 3600.0
    while system.sim.now < deadline:
        system.run(step)
        joined = sum(
            1 for n in survivors
            if n.stack.rpl.state is RplState.JOINED
            and n.stack.rpl.preferred_parent is not None
            and system.nodes[n.stack.rpl.preferred_parent].alive
        )
        if joined >= need:
            recovered_at = system.sim.now - kill_time
            break
    dio_used = sum(
        n.stack.rpl.dio_sent for n in system.nodes.values()
    ) - dio_before
    assert_no_violations(system)
    return recovered_at, dio_used


def _run_diagnosis(seed):
    """Root-side diagnosis: a stuck sensor is the one whose reported
    series stops tracking its neighbors."""
    field = DiurnalField(mean=20.0, amplitude=8.0, period_s=3600.0,
                         gradient_per_m=0.0)
    # Node 5's sensor sticks at t=300, once everything queued for that
    # instant has run: 120 s after formation, so it has produced good
    # readings for STUCK to repeat (a fresh stuck sensor reports nothing
    # at all, which a presence check would catch instead).
    system = Scenario(topology=grid_topology(3), sensors=(("temp", field),),
                      faults=(SensorClause(300.0, 5, "temp"),),
                      faults_at_s=300.0, formation_s=180.0).build(seed)
    collectors = [RawCollectionService(n, root_id=0)
                  for n in system.nodes.values()]
    for collector in collectors:
        collector.start("temp", 30.0)
    # Keep per-node series at the root.
    series = {}
    original = collectors[0]._on_datagram

    def tagging(datagram):
        series.setdefault(datagram.src, []).append(datagram.payload.value)
        original(datagram)

    system.nodes[0].stack.unbind(RAW_PORT)
    system.nodes[0].stack.bind(RAW_PORT, tagging)

    system.run(120.0 + 1800.0)
    # Diagnosis: variance of each node's series; stuck -> ~zero.
    import statistics

    variances = {
        node: statistics.pvariance(values[2:])
        for node, values in series.items() if len(values) > 5
    }
    suspect = min(variances, key=variances.get)
    return suspect, variances


IMINS = (1.0, 4.0, 16.0)


def run_e10():
    results = run_trials(_run_recovery, [(imin, 121) for imin in IMINS])
    return [
        {
            "trickle Imin [s]": imin,
            "recovery time [s]": (recovery if recovery is not None
                                  else float("nan")),
            "DIOs during repair": dios,
        }
        for imin, (recovery, dios) in zip(IMINS, results)
    ]


def bench_e10_self_healing(benchmark):
    rows = once(benchmark, run_e10)
    publish("e10_self_healing",
            "E10 (paper s V-D): self-healing after 5 simultaneous node "
            "failures, per Trickle Imin (repair speed vs beacon cost)",
            rows)
    # Self-healing happened unaided — and fast — at every setting
    # (data-plane feedback drives local repair, so heartbeat traffic
    # dominates the recovery time).
    assert all(row["recovery time [s]"] == row["recovery time [s]"]
               for row in rows)  # no NaN
    assert all(row["recovery time [s]"] < 300.0 for row in rows)
    # The configuration tradeoff of ref [45]: a slower Trickle pays far
    # fewer beacons for its repair.
    assert rows[0]["DIOs during repair"] > 2 * rows[-1]["DIOs during repair"]


def bench_e10_sensor_diagnosis(benchmark):
    suspect, variances = once(benchmark, lambda: _run_diagnosis(seed=122))
    rows = [
        {"node": node, "series variance": variance,
         "diagnosis": "STUCK" if node == suspect else "ok"}
        for node, variance in sorted(variances.items())
    ]
    publish("e10_sensor_diagnosis",
            "E10b (paper s V-D): automated diagnosis of a stuck sensor "
            "from root-side series variance", rows)
    assert suspect == 5
