"""The MAC x Trickle comparative matrix behind the taxonomy gates.

One deployment (grid(3), fixed seed), every cell of the
{CSMA, LPL, RI-MAC, TSCH} x {classic, adaptive-imin, adaptive-k}
matrix: formation, an end-to-end delivery probe, and the four
measurements the paper's scalability/dependability axes trade against
each other — delivery ratio, mean end-to-end latency, DIO traffic, and
radio duty cycle.

Each cell is an independent trial (module-level function), so the
matrix honors ``REPRO_BENCH_JOBS`` and its table is byte-identical for
every jobs count.  The ``taxonomy-matrix`` row of
``benchmarks/gates.py`` diffs :func:`run_matrix`'s rows against the
committed baseline (``make gates``) — a silent behaviour shift in any
MAC or Trickle variant moves a cell and fails the gate.
"""

from benchmarks._common import once, publish, run_trials
from repro.core.metrics import mean
from repro.core.system import IIoTSystem, SystemConfig
from repro.deployment.topology import grid_topology
from repro.net.rpl.dodag import RplConfig
from repro.net.mac.tsch import TschConfig
from repro.net.rpl.trickle import TRICKLE_VARIANTS
from repro.net.stack import StackConfig

MACS = ["csma", "lpl", "rimac", "tsch"]
VARIANTS = sorted(TRICKLE_VARIANTS)
SEED = 271
PORT = 7

#: Scheduled MACs pay slotframe rendezvous per hop; give every cell the
#: same (generous) formation budget so the matrix compares steady state.
FORMATION_S = 420.0


def matrix_trial(mac, variant, seed):
    """One matrix cell: converge, probe delivery, read the axes."""
    # The 6TiSCH-minimal default (101 slots ~ 1 shared broadcast/s
    # network-wide) undersizes a 9-node grid's control + probe load;
    # the dependability scenario sizes the slotframe the same way.
    mac_config = TschConfig(slotframe_slots=23) if mac == "tsch" else None
    config = SystemConfig(
        stack=StackConfig(mac=mac, mac_config=mac_config,
                          rpl=RplConfig(trickle_variant=variant)),
    )
    system = IIoTSystem.build(grid_topology(3), config=config, seed=seed)
    system.start()
    system.run(FORMATION_S)

    sources = [n for n in system.nodes.values() if not n.is_root][-3:]
    delivered = set()
    system.root.stack.bind(PORT, lambda d: delivered.add((d.src, d.payload)))
    latencies = []

    def on_delivered(record):
        if (record.node == system.topology.root_id
                and record.data["port"] == PORT):
            latencies.append(record.data["latency"])

    system.trace.subscribe("net.delivered", on_delivered)
    expected = 0
    for order, node in enumerate(sources):
        for k in range(10):
            expected += 1
            system.sim.schedule(
                k * 5.0 + order * 0.35,
                (lambda s, i: lambda: s.send_datagram(0, PORT, i, 8))(
                    node.stack, k),
            )
    system.run(10 * 5.0 + 60.0)

    stacks = [n.stack for n in system.nodes.values()]
    return {
        "mac": mac,
        "trickle": variant,
        "delivery": round(len(delivered) / expected, 4),
        "latency_ms": round(1000.0 * mean(latencies), 2) if latencies
        else float("nan"),
        "dio_tx": sum(s.rpl.trickle.transmissions for s in stacks),
        "duty_pct": round(
            100.0 * mean([s.mac.duty_cycle() for s in stacks]), 3),
    }


def run_matrix():
    cells = [(mac, variant, SEED) for mac in MACS for variant in VARIANTS]
    return run_trials(matrix_trial, cells)


def bench_taxonomy_matrix(benchmark):
    rows = once(benchmark, run_matrix)
    publish("taxonomy_matrix",
            "MAC x Trickle matrix: delivery / latency / DIO load / duty "
            "cycle per combination (grid(3), one seed)", rows)
    cells = {(row["mac"], row["trickle"]): row for row in rows}
    assert len(cells) == len(MACS) * len(VARIANTS)

    for row in rows:
        assert row["delivery"] > 0.5, f"{row['mac']}/{row['trickle']} lost most probes"
        assert row["dio_tx"] > 0

    # The geographic-scalability trade (§IV-B): duty-cycled and
    # scheduled MACs buy an order of magnitude of radio-on time, and
    # everyone pays latency over always-on CSMA for it.
    for variant in VARIANTS:
        csma, tsch = cells[("csma", variant)], cells[("tsch", variant)]
        assert tsch["duty_pct"] < 0.2 * csma["duty_pct"]
        assert tsch["latency_ms"] > csma["latency_ms"]
        assert cells[("lpl", variant)]["duty_pct"] < csma["duty_pct"]
