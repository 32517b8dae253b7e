"""E3 — geographic scalability: latency vs wireless hops (paper §IV-B).

Claims reproduced:

- with duty-cycled MACs (refs [26], [27]) "a packet may take seconds to
  be transmitted over few wireless hops": per-hop latency is about half
  the wake interval, so end-to-end latency grows linearly and hits
  seconds within a handful of hops;
- "highly synchronous end-to-end communication involving tight
  coordination" (refs [28]–[30]) removes that cost: a Glossy-style
  slot-synchronized flood crosses the same distance in milliseconds.

Sweep: line networks of 2–8 hops; LPL at two wake intervals, RI-MAC,
always-on CSMA, and the synchronous flood.  The wake-interval column
pair is also the E3 ablation from DESIGN.md.
"""

from benchmarks._common import once, publish
from repro.core.metrics import mean
from repro.core.scenario import Scenario
from repro.core.system import SystemConfig
from repro.core.workloads import Probe
from repro.deployment.topology import line_topology
from repro.net.mac.lpl import LplConfig
from repro.net.mac.syncflood import SyncFloodConfig, SyncFloodService
from repro.net.rpl.dodag import RplConfig
from repro.net.stack import StackConfig

HOPS = (2, 4, 6, 8)
PROBES = 12
_SLOW_TRICKLE = RplConfig(trickle_imin_s=4.0, trickle_doublings=7,
                          trickle_k=3, dao_period_s=1e6)


def _upward_latency(hops, mac, mac_config, seed):
    """Mean latency of probes from the far end of a converged line."""
    scenario = Scenario(
        topology=line_topology(hops + 1),
        config=SystemConfig(stack=StackConfig(
            mac=mac, mac_config=mac_config, rpl=_SLOW_TRICKLE,
        )),
        workloads=(Probe(sources=(hops,), count=PROBES, period_s=30.0),),
        formation_s=200.0 + 80.0 * hops,
        run_s=PROBES * 30.0 + 60.0,
    )
    system = scenario.build(seed)
    assert system.joined_fraction() == 1.0, (mac, hops)
    system.run(scenario.run_s)
    latencies = system.workloads[0].latencies
    return mean(latencies) if latencies else float("nan")


def _syncflood_latency(hops, seed):
    system = Scenario(topology=line_topology(hops + 1),
                      formation_s=1.0).build(seed)
    service = SyncFloodService(system.medium,
                               SyncFloodConfig(per_hop_reliability=1.0))
    result = service.flood(hops)  # farthest node floods to everyone
    return result.latency_to(0)


def run_e3():
    scenarios = [
        ("lpl W=0.5s", "lpl", LplConfig(wake_interval_s=0.5)),
        ("lpl W=2.0s", "lpl", LplConfig(wake_interval_s=2.0)),
        ("rimac W=0.5s", "rimac", None),
        ("csma always-on", "csma", None),
    ]
    rows = []
    for hops in HOPS:
        row = {"hops": hops}
        for label, mac, mac_config in scenarios:
            row[label] = _upward_latency(hops, mac, mac_config, 300 + hops)
        row["sync flood"] = _syncflood_latency(hops, seed=300 + hops)
        rows.append(row)
    return rows


def bench_e3_latency_hops(benchmark):
    rows = once(benchmark, run_e3)
    publish("e3_latency_hops",
            "E3 (paper s IV-B): end-to-end latency [s] vs wireless hops, "
            "per MAC family", rows)
    longest = rows[-1]
    # "Seconds over few wireless hops" under duty cycling:
    assert longest["lpl W=0.5s"] > 1.0
    assert longest["lpl W=2.0s"] > longest["lpl W=0.5s"]  # the W knob
    # Latency grows with distance for the duty-cycled MACs.
    assert rows[-1]["lpl W=0.5s"] > rows[0]["lpl W=0.5s"]
    # Synchronous coordination removes orders of magnitude.
    assert longest["sync flood"] * 10 < longest["lpl W=0.5s"]
    # Always-on CSMA is fast but pays the idle-listening energy (E4).
    assert longest["csma always-on"] < 0.2
