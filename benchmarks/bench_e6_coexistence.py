"""E6 — administrative scalability: spectrum coexistence (paper §IV-C,
refs [35], [36]).

Claim reproduced: independently-administered systems sharing the same
physical space "compete for resources, notably wireless communication
channels"; co-located 2.4 GHz tenants degrade an 802.15.4 network's
delivery, and spectrum planning (moving to a channel outside the Wi-Fi
masks) restores it.

Scenario: a 4-hop 802.15.4 line on channel 18 sending CBR telemetry;
0-3 co-located Wi-Fi tenants appear on Wi-Fi channel 6 (whose 22 MHz
mask blankets 802.15.4 channel 18), 20% duty each; the last row applies
the classic mitigation — retune to channel 26, which stays clear of the
1/6/11 Wi-Fi masks.
"""

import os

from benchmarks._common import once, publish, run_trials
from repro.core.system import IIoTSystem, SystemConfig
from repro.deployment.topology import line_topology
from repro.net.stack import StackConfig
from repro.radio.interference import InterfererConfig, WifiInterferer

PACKETS = 80
PERIOD_S = 2.0


def _run(channel, wifi_channels, seed):
    config = SystemConfig(
        stack=StackConfig(mac="csma", channel=channel),
        # Opt-in runtime checking (transparent: results are identical).
        invariant_checking=os.environ.get("REPRO_BENCH_CHECK") == "1",
    )
    system = IIoTSystem.build(line_topology(5), config=config, seed=seed)
    system.start()
    system.run(180.0)
    assert system.joined_fraction() == 1.0

    interferers = []
    for index, wifi_channel in enumerate(wifi_channels):
        interferer = WifiInterferer(
            system.sim, system.medium, 900 + index,
            (20.0 + 15.0 * index, 10.0),
            config=InterfererConfig(wifi_channel=wifi_channel,
                                    duty_cycle=0.30,
                                    tx_power_dbm=15.0),
        )
        interferer.start()
        interferers.append(interferer)

    delivered = set()
    system.root.stack.bind(7, lambda d: delivered.add(d.payload))
    source = system.nodes[4].stack
    collisions_before = system.trace.count("radio.collision")
    for i in range(PACKETS):
        system.sim.schedule(
            i * PERIOD_S,
            (lambda k: lambda: source.send_datagram(0, 7, k, 16))(i),
        )
    system.run(PACKETS * PERIOD_S + 60.0)
    collisions = system.trace.count("radio.collision") - collisions_before
    if system.checkers is not None:
        system.checkers.finish()
        system.checkers.detach()
        system.checkers.assert_clean()
    return len(delivered) / PACKETS, collisions


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
