"""E7 — reliability through redundancy (paper §V-A).

Claim reproduced: the three redundancy types of ref [42] — information,
time, physical — each raise end-to-end reliability, at distinct resource
costs; and the sensing/actuation layer constrains how far each can go.

Scenario: telemetry across a lossy 4-hop path (log-distance links in
their transitional region).  Designs:

- none           — single transmission per hop, no link ACK retries;
- time           — link-layer retransmissions (the MAC's ARQ);
- information    — each report sent twice end-to-end (erasure-style);
- physical       — two disjoint device chains sense the same points,
  report delivered if either copy arrives;
- time+information — composition.

Reported: delivery ratio and radio transmissions per delivered report
(the cost axis).
"""

from benchmarks._common import once, publish
from repro.core.scenario import Scenario
from repro.core.system import SystemConfig
from repro.core.workloads import Probe
from repro.deployment.topology import Topology
from repro.net.mac.csma import CsmaConfig
from repro.net.rpl.dodag import RplConfig
from repro.net.stack import StackConfig
from repro.radio.propagation import LogDistanceModel

REPORTS = 60
PERIOD_S = 4.0
#: Spacing placing links in the lossy transitional region (~78% PRR).
SPACING = 26.5


def _topology(chains):
    positions = {0: (0.0, 0.0)}
    node_id = 1
    for chain in range(chains):
        for hop in range(4):
            positions[node_id] = ((hop + 1) * SPACING, chain * 10.0)
            node_id += 1
    return Topology(positions, name=f"lossy-{chains}chain")


def _link_model(seed):
    return LogDistanceModel(
        path_loss_exponent=3.2,
        shadowing_sigma_db=0.0,
        sensitivity_dbm=-88.0,
        transition_width_db=2.0,
        seed=seed,
    )


def _run(retries, copies, chains, seed):
    mac_config = CsmaConfig(max_retries=retries)
    # Routing kept deliberately stable (huge parent-fail threshold):
    # the comparison isolates *data-plane* redundancy, so ack-less
    # designs must not also tear their routes down.
    config = SystemConfig(stack=StackConfig(
        mac="csma", mac_config=mac_config, upward_retries=0,
        rpl=RplConfig(parent_fail_threshold=10_000, dao_period_s=1e6),
    ))
    tails = tuple(chain * 4 + 4 for chain in range(chains))
    scenario = Scenario(
        topology=_topology(chains),
        config=config,
        link_model=_link_model(seed),
        workloads=(Probe(sources=tails, count=REPORTS, period_s=PERIOD_S,
                         copies=copies),),
        formation_s=600.0,
        run_s=REPORTS * PERIOD_S + 120.0,
    )
    system = scenario.build(seed)
    tx_before = sum(n.stack.radio.frames_sent for n in system.nodes.values())
    system.run(scenario.run_s)
    tx_used = sum(
        n.stack.radio.frames_sent for n in system.nodes.values()
    ) - tx_before
    # A report counts once, whichever chain or copy delivered it.
    reports = {payload for _src, payload in system.workloads[0].delivered}
    ratio = len(reports) / REPORTS
    cost = tx_used / max(len(reports), 1)
    return ratio, cost


def run_e7():
    rows = []
    for label, retries, copies, chains in (
        ("none", 0, 1, 1),
        ("time (ARQ x3)", 3, 1, 1),
        ("information (2 copies)", 0, 2, 1),
        ("physical (2 chains)", 0, 1, 2),
        ("time + information", 3, 2, 1),
    ):
        ratio, cost = _run(retries, copies, chains, seed=91)
        rows.append({
            "redundancy": label,
            "delivery ratio": ratio,
            "tx per delivered report": cost,
        })
    return rows


def bench_e7_redundancy(benchmark):
    rows = once(benchmark, run_e7)
    publish("e7_redundancy",
            "E7 (paper s V-A): end-to-end reliability under the three "
            "redundancy types over a lossy 4-hop path", rows)
    by_label = {row["redundancy"]: row for row in rows}
    base = by_label["none"]["delivery ratio"]
    # The unprotected path is genuinely unreliable.
    assert base < 0.9
    # Every redundancy type helps.
    for label in ("time (ARQ x3)", "information (2 copies)",
                  "physical (2 chains)", "time + information"):
        assert by_label[label]["delivery ratio"] > base, label
    # Composition is (tied-)strongest.
    best = max(row["delivery ratio"] for row in rows)
    assert by_label["time + information"]["delivery ratio"] >= best - 0.05
    # And none of it is free: added reliability costs transmissions.
    assert by_label["time (ARQ x3)"]["tx per delivered report"] > 0
