"""A1 — MAC-layer ablations (DESIGN.md's design-choice sweeps).

Two knobs the sensing-and-actuation layer designer must set, quantified:

- **wake interval** — the latency/energy exchange rate of duty cycling
  (complements E3, which sweeps hops at fixed intervals);
- **phase lock** (ContikiMAC-style) — learned receiver phases shrink
  unicast strobes from ~half a wake interval to a guard window, cutting
  the *sender's* radio cost several-fold at no delivery loss.
"""

from benchmarks._common import once, publish
from repro.net.mac.lpl import LplConfig, LplMac
from repro.radio.medium import Medium, Radio
from repro.radio.propagation import UnitDiskModel
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceLog

PACKETS = 60
PERIOD_S = 4.31  # incommensurate with every wake interval swept


def _run(wake_interval, phase_lock, seed):
    sim = Simulator(seed=seed)
    medium = Medium(sim, UnitDiskModel(radius_m=25.0), TraceLog())
    config = LplConfig(wake_interval_s=wake_interval, phase_lock=phase_lock)
    sender = LplMac(Radio(medium, 1, (0, 0)), config=config)
    receiver = LplMac(Radio(medium, 2, (10, 0)), config=config)
    sender.start()
    receiver.start()
    delivered = []
    latencies = []
    receiver.on_receive = lambda frame: delivered.append(sim.now)
    sent_at = {}

    def send(index):
        sent_at[index] = sim.now
        sender.send(2, index, 20)

    original_on_receive = receiver.on_receive

    def on_receive(frame):
        latencies.append(sim.now - sent_at[frame.payload])
        delivered.append(frame.payload)

    receiver.on_receive = on_receive
    for i in range(PACKETS):
        sim.schedule(5.0 + i * PERIOD_S, (lambda k: lambda: send(k))(i))
    sim.run(until=10.0 + PACKETS * PERIOD_S)
    mean_latency = sum(latencies) / len(latencies) if latencies else float("nan")
    return {
        "delivery": len(set(delivered)) / PACKETS,
        "sender duty cycle": sender.duty_cycle(),
        "receiver duty cycle": receiver.duty_cycle(),
        "mean latency [s]": mean_latency,
    }


def run_a1():
    rows = []
    for wake_interval in (0.25, 0.5, 1.0):
        for phase_lock in (False, True):
            metrics = _run(wake_interval, phase_lock, seed=161)
            rows.append({
                "wake interval [s]": wake_interval,
                "phase lock": phase_lock,
                **metrics,
            })
    return rows


def bench_a1_mac_ablations(benchmark):
    rows = once(benchmark, run_a1)
    publish("a1_mac_ablations",
            "A1 (ablation): LPL wake interval and ContikiMAC-style phase "
            "lock, one-hop unicast workload", rows)
    by_key = {(row["wake interval [s]"], row["phase lock"]): row
              for row in rows}
    # Everything delivers.
    assert all(row["delivery"] >= 0.95 for row in rows)
    # Longer wake intervals: cheaper idling, slower delivery.
    assert (by_key[(1.0, False)]["receiver duty cycle"]
            < by_key[(0.25, False)]["receiver duty cycle"])
    assert (by_key[(1.0, False)]["mean latency [s]"]
            > by_key[(0.25, False)]["mean latency [s]"])
    # Phase lock slashes the sender's cost at every interval.
    for wake_interval in (0.25, 0.5, 1.0):
        unlocked = by_key[(wake_interval, False)]["sender duty cycle"]
        locked = by_key[(wake_interval, True)]["sender duty cycle"]
        assert locked < unlocked * 0.75, wake_interval
