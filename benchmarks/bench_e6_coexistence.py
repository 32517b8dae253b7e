"""E6 — administrative scalability: spectrum coexistence (paper §IV-C,
refs [35], [36]).

Claim reproduced: independently-administered systems sharing the same
physical space "compete for resources, notably wireless communication
channels"; co-located 2.4 GHz tenants degrade an 802.15.4 network's
delivery, and spectrum planning (moving to a channel outside the Wi-Fi
masks) restores it.

Scenario: a 4-hop 802.15.4 line on channel 18 sending CBR telemetry;
0-3 co-located Wi-Fi tenants appear on Wi-Fi channel 6 (whose 22 MHz
mask blankets 802.15.4 channel 18), 30% duty each; the last row applies
the classic mitigation — retune to channel 26, which stays clear of the
1/6/11 Wi-Fi masks.
"""

from benchmarks._common import assert_no_violations, once, publish, run_trials
from repro.core.scenario import Scenario
from repro.core.system import SystemConfig
from repro.core.workloads import Probe
from repro.deployment.topology import line_topology
from repro.faults.plan import InterferenceClause
from repro.net.stack import StackConfig

PACKETS = 80
PERIOD_S = 2.0
FORMATION_S = 180.0
RUN_S = PACKETS * PERIOD_S + 60.0


def _run(channel, wifi_channels, seed):
    # Each tenant switches on when formation ends and stays for the run.
    tenants = tuple(
        InterferenceClause(FORMATION_S, RUN_S, (20.0 + 15.0 * index, 10.0),
                           wifi_channel=wifi_channel, duty_cycle=0.30,
                           tx_power_dbm=15.0, node_id=900 + index)
        for index, wifi_channel in enumerate(wifi_channels))
    scenario = Scenario(
        topology=line_topology(5),
        config=SystemConfig(stack=StackConfig(mac="csma", channel=channel),
                            invariant_checking=True),
        faults=tenants,
        workloads=(Probe(sources=(4,), count=PACKETS, period_s=PERIOD_S),),
        formation_s=FORMATION_S,
        run_s=RUN_S,
    )
    system = scenario.build(seed)
    assert system.joined_fraction() == 1.0

    collisions_before = system.trace.count("radio.collision")
    system.run(scenario.run_s)
    collisions = system.trace.count("radio.collision") - collisions_before
    assert_no_violations(system)
    return system.workloads[0].delivery(), collisions


TENANT_SETS = [
    ("no tenants", 18, ()),
    ("1 tenant (wifi ch 6)", 18, (6,)),
    ("2 tenants (wifi ch 6)", 18, (6, 6)),
    ("3 tenants (wifi ch 6)", 18, (6, 6, 6)),
    ("3 tenants + retune to ch 26", 26, (6, 6, 6)),
]


def run_e6():
    results = run_trials(
        _run, [(channel, wifi, 81) for _, channel, wifi in TENANT_SETS]
    )
    return [
        {"scenario": label, "delivery ratio": prr, "collisions": collisions}
        for (label, _, _), (prr, collisions) in zip(TENANT_SETS, results)
    ]


def bench_e6_coexistence(benchmark):
    rows = once(benchmark, run_e6)
    publish("e6_coexistence",
            "E6 (paper s IV-C): end-to-end delivery of an 802.15.4 "
            "network vs co-located Wi-Fi tenants", rows)
    alone = rows[0]["delivery ratio"]
    worst = rows[3]["delivery ratio"]
    retuned = rows[4]["delivery ratio"]
    # Coexistence hurts...
    assert worst < alone * 0.9
    # ...the more tenants share the overlapped spectrum, the worse...
    assert rows[3]["delivery ratio"] <= rows[1]["delivery ratio"] + 0.05
    assert rows[3]["collisions"] > rows[0]["collisions"]
    # ...and channel planning restores service.
    assert retuned > worst
    assert retuned > alone * 0.95
