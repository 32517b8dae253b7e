"""Scale bench — the radio medium at city size, gated on trace identity.

The paper's scalability axis is geographic: industrial deployments span
buildings, campuses, and districts.  This bench measures the medium's
throughput on multi-building :func:`campus_topology` deployments at
N=1k/10k/50k radios (frames/sec, events/sec, and an RSS proxy) and
persists them to ``BENCH_scale.json`` at the repo root.

Two things are *asserted*, not just measured:

- **Identity** — the spatially-indexed medium must reproduce the
  full-scan medium's trace byte-for-byte (the reference is the same
  model with its range bound undeclared): the same ``radio.rx`` /
  ``radio.collision`` / ``radio.miss`` / ``radio.drop`` sequence, the
  same CCA answers, at the medium level and through a full CSMA/RPL
  system run.  ``make check-invariants`` runs the identity legs alone
  (``--identity-only``) so a medium refactor can't silently change
  delivery order.
- **Speedup** — at N=10k the indexed medium must move frames at least
  5x faster than the full scan on the same workload (both sides get the
  vectorized link math; the win under test is candidate-set reduction).
- **Telemetry overhead** — the windowed time-series engine at N=10k
  must cost <= 10% wall time over the same instrumented workload with
  the engine off, with outcomes identical, the retention ring holding
  exactly its bound (overflow counted, not hidden), and only per-domain
  rollups — never per-node series — stored in the windows.

Runnable three ways::

    make bench-scale                     # python benchmarks/bench_perf_scale.py
    make bench-scale-quick               # reduced counts, no BENCH write
    pytest benchmarks/ --benchmark-only  # alongside the experiment suite
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from repro.core.system import IIoTSystem, SystemConfig
from repro.deployment.topology import campus_topology
from repro.devices.phenomena import DiurnalField
from repro.net.stack import StackConfig
from repro.obs.registry import Registry
from repro.obs.timeseries import TelemetryEngine
from repro.radio.medium import Frame, Medium, Radio
from repro.radio.propagation import LogDistanceModel
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceLog

BENCH_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_scale.json",
)

#: Every campus leg uses 100-node buildings; N picks the building count.
NODES_PER_BUILDING = 100
#: The scale legs' propagation model: ~88 m audible range, so a 3x3
#: cell neighborhood covers a building and its immediate neighbors.
MODEL_KW = dict(path_loss_exponent=3.5, shadowing_sigma_db=2.0)


class FullScanLogDistance(LogDistanceModel):
    """The brute-force reference: same math, no declared range bound.

    The medium reads capabilities from a model's *own* class dict, so
    this subclass keeps the vectorized paths it redeclares and loses
    the grid index — every query visits every radio.
    """

    rssi_dbm_batch = LogDistanceModel.rssi_dbm_batch
    reception_probability_batch = LogDistanceModel.reception_probability_batch


def _rss_mb() -> Tuple[float, float]:
    """(current, peak) resident set in MB — a proxy, not an accounting.

    Legs share one process, so "peak" is cumulative across earlier legs;
    the per-leg *current* value is the comparable number.
    """
    import resource
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    try:
        with open("/proc/self/statm") as handle:
            pages = int(handle.read().split()[1])
        now = pages * os.sysconf("SC_PAGE_SIZE") / 1e6
    except (OSError, IndexError, ValueError):
        now = peak
    return round(now, 1), round(peak, 1)


# ----------------------------------------------------------------------
# shared workload: a campus full of radios, a sender subset, CCA + frames
# ----------------------------------------------------------------------
def _build_campus_medium(
    n_nodes: int, model_cls: type, seed: int = 5, trace: bool = False
) -> Tuple[Simulator, Medium]:
    topology = campus_topology(
        n_nodes // NODES_PER_BUILDING, NODES_PER_BUILDING, seed=seed)
    sim = Simulator(seed=seed)
    medium = Medium(sim, model_cls(seed=seed, **MODEL_KW),
                    TraceLog(enabled=trace))
    for node_id in topology.node_ids():
        radio = Radio(medium, node_id, topology.positions[node_id])
        radio.on_receive = lambda frame, rssi: None
        radio.set_listening()
    return sim, medium


def _schedule_frames(
    sim: Simulator,
    medium: Medium,
    senders: List[int],
    group: int = 8,
    group_period_s: float = 0.01,
    stagger_s: float = 0.0004,
    size_bytes: int = 50,
) -> List[bool]:
    """CSMA-shaped load: CCA probe, then transmit; ``group`` overlap.

    Senders fire in groups whose staggered starts overlap within one
    frame airtime, so collision arbitration and carrier sensing do real
    work.  Returns the (ordered) CCA answers for identity comparison.
    """
    cca: List[bool] = []

    def make_send(radio: Radio) -> Any:
        def send() -> None:
            cca.append(medium.carrier_busy(radio))
            frame = Frame(payload="p", size_bytes=size_bytes,
                          channel=radio.channel, sender=radio.node_id)
            medium.transmit(radio, frame)
        return send

    for k, node_id in enumerate(senders):
        at = 0.001 + (k // group) * group_period_s + (k % group) * stagger_s
        sim.schedule(at, make_send(medium.radios[node_id]))
    return cca


def _pick_senders(n_nodes: int, count: int) -> List[int]:
    step = max(1, n_nodes // count)
    return list(range(0, n_nodes, step))[:count]


def _run_workload(
    n_nodes: int,
    senders: int,
    model_cls: type = LogDistanceModel,
    group: int = 8,
    trace: bool = False,
) -> Dict[str, Any]:
    """Build the campus, drive the frame schedule, time only the run."""
    setup_start = time.perf_counter()
    sim, medium = _build_campus_medium(n_nodes, model_cls, trace=trace)
    sender_ids = _pick_senders(n_nodes, senders)
    cca = _schedule_frames(sim, medium, sender_ids, group=group)
    setup_s = time.perf_counter() - setup_start
    start = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - start
    frames = len(sender_ids)
    delivered = sum(r.frames_received for r in medium.radios.values())
    rss_now, rss_peak = _rss_mb()
    grid = medium.grid_info()
    return {
        "n": n_nodes,
        "spatial_index": grid["spatial_index"],
        "frames": frames,
        "deliveries": delivered,
        "cca": cca,
        "trace": medium.trace.records if trace else None,
        "setup_s": round(setup_s, 3),
        "wall_s": round(wall, 4),
        "frames_per_sec": round(frames / wall, 1),
        "deliveries_per_sec": round(delivered / wall),
        "events_per_sec": round(sim.events_processed / wall),
        "rss_now_mb": rss_now,
        "rss_peak_mb": rss_peak,
        "grid": grid,
    }


def _public(leg: Dict[str, Any]) -> Dict[str, Any]:
    """The JSON-payload view of a workload leg (bulk fields dropped)."""
    out = {k: v for k, v in leg.items() if k not in ("cca", "trace")}
    out["cca_busy"] = sum(leg["cca"])
    return out


# ----------------------------------------------------------------------
# 1. identity: indexed medium == full-scan medium, byte for byte
# ----------------------------------------------------------------------
def identity_medium_leg(n_nodes: int = 200, senders: int = 60,
                        group: int = 20) -> Dict[str, Any]:
    """Medium-level identity: same trace, same CCA answers, same counts.

    ``group=20`` keeps >12 transmissions in flight at once, pushing the
    indexed medium onto its per-cell active heaps (the global-scan
    fast path would otherwise mask a bug in them).
    """
    indexed = _run_workload(n_nodes, senders, group=group, trace=True)
    brute = _run_workload(n_nodes, senders, FullScanLogDistance,
                          group=group, trace=True)
    assert indexed["spatial_index"] and not brute["spatial_index"]
    return {
        "n": n_nodes,
        "frames": indexed["frames"],
        "deliveries": indexed["deliveries"],
        "trace_records": len(indexed["trace"]),
        "cca_probes": len(indexed["cca"]),
        "identical": (indexed["trace"] == brute["trace"]
                      and indexed["cca"] == brute["cca"]
                      and indexed["deliveries"] == brute["deliveries"]),
        "grid_cells": indexed["grid"]["cells"],
    }


def identity_system_leg(duration_s: float = 400.0) -> Dict[str, Any]:
    """System-level identity: a full CSMA/RPL campus run, all records.

    Two complete systems — stacks, MACs, routing, sensor traffic —
    differing only in whether the link model declares its range bound.
    The *entire* trace is
    compared, not just radio events: if the index perturbed anything
    downstream (parent choices, DAO timing), it shows here.
    """

    def run(model_cls: type) -> Tuple[Any, int]:
        topology = campus_topology(2, 9, building_span_m=40.0,
                                   building_gap_m=30.0, seed=3)
        config = SystemConfig(stack=StackConfig(mac="csma"))
        model = model_cls(path_loss_exponent=3.0,
                          shadowing_sigma_db=2.0, seed=3)
        system = IIoTSystem.build(topology, config=config,
                                  link_model=model, seed=2018)
        system.add_field_sensors("temp", DiurnalField(mean=20.0))
        system.start()
        sim = system.sim
        root_id = system.topology.root_id

        def reporter(stack, offset: float):
            def send() -> None:
                stack.send_datagram(root_id, 7, payload="r", payload_bytes=24)
                sim.schedule(30.0, send)
            sim.schedule(120.0 + offset, send)

        for node_id in sorted(system.nodes):
            if node_id != root_id:
                reporter(system.nodes[node_id].stack, offset=0.1 * node_id)
        system.run(duration_s)
        return system.trace.records, system.sim.events_processed

    indexed_trace, indexed_events = run(LogDistanceModel)
    brute_trace, brute_events = run(FullScanLogDistance)
    radio_kinds = ("radio.rx", "radio.collision", "radio.miss")
    return {
        "nodes": 18,
        "duration_s": duration_s,
        "trace_records": len(indexed_trace),
        "radio_outcomes": sum(1 for r in indexed_trace
                              if r.category in radio_kinds),
        "events": indexed_events,
        "identical": (indexed_trace == brute_trace
                      and indexed_events == brute_events),
    }


# ----------------------------------------------------------------------
# 2. scale: frames/sec and events/sec at N=1k/10k/50k
# ----------------------------------------------------------------------
def scale_leg(n_nodes: int, senders: int) -> Dict[str, Any]:
    return _public(_run_workload(n_nodes, senders))


def speedup_leg(n_nodes: int = 10_000, senders: int = 2_000) -> Dict[str, Any]:
    """Indexed vs full scan on the identical N=10k workload.

    Both sides use the same vectorized model math and the same
    neighborhood maps; only the candidate sets differ — this isolates
    the grid index's contribution.  Deliveries and CCA answers must
    agree exactly (the scale-size echo of the identity legs).
    """
    indexed = _run_workload(n_nodes, senders)
    brute = _run_workload(n_nodes, senders, FullScanLogDistance)
    return {
        "n": n_nodes,
        "frames": indexed["frames"],
        "indexed_frames_per_sec": indexed["frames_per_sec"],
        "brute_frames_per_sec": brute["frames_per_sec"],
        "indexed_wall_s": indexed["wall_s"],
        "brute_wall_s": brute["wall_s"],
        "speedup": round(indexed["frames_per_sec"]
                         / max(brute["frames_per_sec"], 1e-9), 2),
        "outcomes_identical": (indexed["deliveries"] == brute["deliveries"]
                               and indexed["cca"] == brute["cca"]),
    }


# ----------------------------------------------------------------------
# 3. telemetry: the windowed engine's price at city scale
# ----------------------------------------------------------------------
def _telemetry_workload(
    n_nodes: int,
    senders: int,
    telemetry: bool,
    interval_s: float,
    retention: int = 8,
    seed: int = 5,
) -> Dict[str, Any]:
    """The campus frame workload with per-node counters, engine optional.

    Both legs pay for instrumentation — every delivery increments a
    per-node ``radio.rx`` counter — so the
    difference isolates the :class:`TelemetryEngine` itself: the
    periodic scrape of an N-node registry, per-domain rollup, and ring
    maintenance.  The engine draws no RNG (fixed phase), so delivery
    outcomes must be identical either way.
    """
    topology = campus_topology(
        n_nodes // NODES_PER_BUILDING, NODES_PER_BUILDING, seed=seed)
    sim = Simulator(seed=seed)
    model = LogDistanceModel(seed=seed, **MODEL_KW)
    medium = Medium(sim, model, TraceLog(enabled=False))
    registry = Registry()
    for node_id in topology.node_ids():
        radio = Radio(medium, node_id, topology.positions[node_id])
        inc = registry.counter("radio.rx", node=node_id).inc
        radio.on_receive = lambda frame, rssi, inc=inc: inc()
        radio.set_listening()
    engine = None
    if telemetry:
        engine = TelemetryEngine(sim, registry, interval_s=interval_s,
                                 retention=retention,
                                 domain_of=topology.domain_of)
        engine.start()
    sender_ids = _pick_senders(n_nodes, senders)
    _schedule_frames(sim, medium, sender_ids)
    horizon_s = 0.001 + ((len(sender_ids) + 7) // 8) * 0.01 + 4 * interval_s
    start = time.perf_counter()
    sim.run(until=horizon_s)
    wall = time.perf_counter() - start
    rss_now, _ = _rss_mb()
    out: Dict[str, Any] = {
        "wall_s": round(wall, 4),
        "deliveries": sum(r.frames_received for r in medium.radios.values()),
        "rss_now_mb": rss_now,
    }
    if engine is not None:
        last = engine.last_window
        domain_labels = set()
        node_labels = 0
        for window in engine.windows:
            for _, labels in window.counters:
                for key, value in labels:
                    if key == "domain":
                        domain_labels.add(value)
                    elif key == "node":
                        node_labels += 1
        out.update(
            windows_closed=engine.windows_closed,
            windows_retained=len(engine.windows),
            windows_dropped=engine.dropped,
            retention=retention,
            domains_observed=len(domain_labels),
            per_node_series_in_windows=node_labels,
            last_window_rx=last.counter_total("radio.rx") if last else 0.0,
        )
    return out


def telemetry_overhead_leg(n_nodes: int = 10_000, senders: int = 2_000,
                           interval_s: float = 0.2,
                           repeats: int = 2) -> Dict[str, Any]:
    """Windowed telemetry off vs on at N=10k: the <= 10% overhead gate.

    The legs are interleaved ``repeats`` times, each keeping its
    fastest wall time.  Alongside the headline ratio the leg *proves*
    memory stays bounded: the ring holds exactly ``retention`` windows
    with older ones counted as dropped, the windows carry per-domain —
    never per-node — series, and the on-leg's resident set is recorded
    next to the off-leg's.
    """
    walls = {"off": float("inf"), "on": float("inf")}
    legs: Dict[str, Dict[str, Any]] = {}
    for _ in range(repeats):
        for mode in ("off", "on"):
            leg = _telemetry_workload(n_nodes, senders, mode == "on",
                                      interval_s=interval_s)
            walls[mode] = min(walls[mode], leg["wall_s"])
            legs[mode] = leg
    on = legs["on"]
    return {
        "n": n_nodes,
        "frames": senders,
        "interval_s": interval_s,
        "wall_s_off": round(walls["off"], 4),
        "wall_s_on": round(walls["on"], 4),
        "overhead_pct": round((walls["on"] / walls["off"] - 1.0) * 100.0, 1),
        "outcomes_identical": legs["off"]["deliveries"] == on["deliveries"],
        "deliveries": on["deliveries"],
        "windows_closed": on["windows_closed"],
        "windows_retained": on["windows_retained"],
        "windows_dropped": on["windows_dropped"],
        "retention": on["retention"],
        "domains_observed": on["domains_observed"],
        "per_node_series_in_windows": on["per_node_series_in_windows"],
        "rss_now_mb_off": legs["off"]["rss_now_mb"],
        "rss_now_mb_on": on["rss_now_mb"],
    }


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def run_perf_scale(quick: bool = False,
                   identity_only: bool = False) -> Dict[str, Any]:
    """Run the identity and scale legs; write ``BENCH_scale.json``.

    ``quick`` shrinks the legs to a tier-1 time budget and does **not**
    overwrite the committed baseline; ``identity_only`` runs just the
    trace-identity legs (the ``make check-invariants`` hook).
    """
    payload: Dict[str, Any] = {
        "bench": "perf_scale",
        "host": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
        },
        "identity": {
            "medium": identity_medium_leg(),
            "system": identity_system_leg(
                duration_s=200.0 if quick else 400.0),
        },
    }
    if identity_only:
        payload["identity_only"] = True
        return payload
    if quick:
        payload["quick"] = True
        payload["scale"] = {"n_1k": scale_leg(1_000, senders=300)}
        payload["speedup_10k"] = speedup_leg(2_000, senders=400)
        payload["telemetry"] = telemetry_overhead_leg(
            2_000, senders=400, interval_s=0.05, repeats=1)
        return payload
    payload["scale"] = {
        "n_1k": scale_leg(1_000, senders=500),
        "n_10k": scale_leg(10_000, senders=2_000),
        "n_50k": scale_leg(50_000, senders=2_000),
    }
    payload["speedup_10k"] = speedup_leg()
    payload["telemetry"] = telemetry_overhead_leg()
    with open(BENCH_PATH, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return payload


def _assert_shape(payload: Dict[str, Any]) -> None:
    identity = payload["identity"]
    assert identity["medium"]["identical"], (
        "indexed medium diverged from brute force at the medium level")
    assert identity["system"]["identical"], (
        "indexed medium diverged from brute force in a full system run")
    assert identity["medium"]["deliveries"] > 0
    assert identity["system"]["radio_outcomes"] > 0
    if payload.get("identity_only"):
        return
    for leg in payload["scale"].values():
        assert leg["frames_per_sec"] > 0
        assert leg["deliveries"] > 0
        assert leg["grid"]["spatial_index"], "grid index failed to engage"
    speedup = payload["speedup_10k"]
    assert speedup["outcomes_identical"], (
        "indexed and brute-force runs disagreed at scale")
    if not payload.get("quick"):
        assert speedup["speedup"] >= 5.0, (
            f"grid index only {speedup['speedup']}x over brute force "
            f"at N={speedup['n']}")
    telemetry = payload["telemetry"]
    assert telemetry["outcomes_identical"], (
        "telemetry perturbed frame delivery")
    # Bounded memory, proven structurally: the ring holds exactly its
    # retention, the overflow is *counted*, and every windowed series is
    # a domain rollup — per-node series never reach the ring at scale.
    assert telemetry["windows_retained"] == telemetry["retention"]
    assert telemetry["windows_dropped"] > 0, (
        "workload too short to exercise the retention ring")
    assert telemetry["domains_observed"] > 0
    assert telemetry["per_node_series_in_windows"] == 0, (
        f"{telemetry['per_node_series_in_windows']} per-node series "
        f"leaked past the domain rollup")
    assert telemetry["rss_now_mb_on"] - telemetry["rss_now_mb_off"] <= 256.0, (
        "telemetry RSS growth unbounded")
    if not payload.get("quick"):
        assert telemetry["overhead_pct"] <= 10.0, (
            f"windowed telemetry costs {telemetry['overhead_pct']}% "
            f"at N={telemetry['n']}")


def bench_perf_scale(benchmark) -> None:
    from benchmarks._common import once

    payload = once(benchmark, lambda: run_perf_scale(quick=True))
    _assert_shape(payload)
    leg = payload["scale"]["n_1k"]
    print(f"\nperf_scale(quick): identity ok, N=1k "
          f"{leg['frames_per_sec']:,} frames/s, "
          f"speedup x{payload['speedup_10k']['speedup']}, "
          f"telemetry +{payload['telemetry']['overhead_pct']}%")


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="reduced counts, tier-1 time budget; does "
                             "not overwrite BENCH_scale.json")
    parser.add_argument("--identity-only", action="store_true",
                        help="run only the trace-identity legs (the "
                             "check-invariants hook)")
    args = parser.parse_args(argv)
    payload = run_perf_scale(quick=args.quick,
                             identity_only=args.identity_only)
    _assert_shape(payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    if not (args.quick or args.identity_only):
        print(f"\nwrote {BENCH_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
