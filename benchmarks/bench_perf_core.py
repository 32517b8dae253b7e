"""Perf baseline — kernel, medium, trial-engine, and pool throughput.

This is the repository's performance trajectory anchor: it measures the
hot paths the rest of the suite leans on — discrete-event dispatch
(events/sec), frame delivery through the shared medium (frames/sec),
whole-trial throughput serial vs. parallel (trials/sec), warm-pool vs
cold-pool dispatch, and the cost of the observability layer with span
sampling on — and persists them to ``BENCH_core.json`` at the repo
root.  Future optimization PRs regress against that file: run
``make bench-perf`` before and after, and compare.

Correctness is asserted alongside speed: the parallel sweep must yield
**byte-identical** rows to the serial sweep (merge-by-index contract of
:mod:`repro.parallel`); the speedup demand adapts to the host — at
least 2x where there are >= 4 cores to win on, and ~1.0 (the serial
fast-path, *not* the old 0.72x pool-spawn tax) on a single-core host.

Runnable three ways::

    make bench-perf                      # python benchmarks/bench_perf_core.py
    make bench-perf-quick                # reduced counts, no BENCH write
    pytest benchmarks/ --benchmark-only  # alongside the experiment suite
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from typing import Any, Dict, Optional

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from repro.core.experiment import Sweep
from repro.core.system import IIoTSystem, SystemConfig
from repro.deployment.topology import grid_topology
from repro.devices.phenomena import DiurnalField
from repro.net.stack import StackConfig
from repro.parallel import WorkerPool, resolve_jobs, usable_cores
from repro.radio.medium import Frame, Medium, Radio
from repro.radio.propagation import LogDistanceModel, UnitDiskModel
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceLog

BENCH_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_core.json",
)

#: The acceptance sweep: 4 values x 5 seeds = 20 independent trials.
SWEEP_VALUES = (2, 3, 4, 5)
SWEEP_REPETITIONS = 5

#: Span sampling configuration of the instrumented-overhead leg: the
#: fraction of packet lifecycles kept and the ring-buffer bound.  The
#: observability *metrics* stay exact at any rate (asserted by
#: tests/obs/test_span_sampling.py); sampling only thins stored spans.
OBS_SAMPLE_RATE = 0.05
OBS_SPAN_MAX = 20_000


# ----------------------------------------------------------------------
# 1. kernel: raw event dispatch + cancellation churn
# ----------------------------------------------------------------------
def kernel_events_per_sec(events: int = 150_000, timers: int = 100,
                          repeats: int = 5) -> Dict[str, Any]:
    """Events/sec through the scheduler under timer-heavy load.

    Each timer reschedules itself and cancels a decoy it scheduled the
    tick before — the cancel-much-more-than-fire pattern of MAC
    backoffs and CoAP retransmissions, which is exactly what the heap's
    skip-count/compaction path exists for.

    The measurement runs ``repeats`` times and keeps the fastest — this
    is the regression-gated number, and a throughput microbenchmark's
    best run is its least noise-contaminated one (scheduler preemption
    and cache pollution only ever slow it down).
    """
    best: Optional[Dict[str, Any]] = None
    for _ in range(repeats):
        sim = Simulator(seed=7)
        decoys = [None] * timers

        def make_tick(i: int, period: float):
            def tick() -> None:
                if decoys[i] is not None:
                    decoys[i].cancel()
                decoys[i] = sim.schedule(period * 50.0, lambda: None)
                sim.schedule(period, tick)
            return tick

        for i in range(timers):
            sim.schedule(0.001 * (i + 1), make_tick(i, 0.01 + 0.0001 * i))
        start = time.perf_counter()
        sim.run(max_events=events)
        wall = time.perf_counter() - start
        if best is None or wall < best["wall_s"]:
            best = {
                "events": sim.events_processed,
                "wall_s": wall,
                "events_per_sec": round(sim.events_processed / wall),
                "heap_compactions": sim._compactions,
            }
    best["wall_s"] = round(best["wall_s"], 4)
    return best


# ----------------------------------------------------------------------
# 2. medium: frame delivery fan-out
# ----------------------------------------------------------------------
def medium_frames_per_sec(frames: int = 4_000, receivers: int = 24,
                          repeats: int = 3) -> Dict[str, Any]:
    """Frames/sec through the shared medium: one sender, then eight.

    The fastest of ``repeats`` runs of each sub-leg, for the kernel
    leg's reason.  The ``contended_*`` keys are the second sub-leg.
    """
    single = min((saturating_sender(frames, receivers)
                  for _ in range(repeats)), key=lambda leg: leg["wall_s"])
    contended = min((contended_frames_per_sec(frames, receivers)
                     for _ in range(repeats)),
                    key=lambda leg: leg["contended_wall_s"])
    return {**single, **contended}


def _add_listeners(medium: Medium, count: int, first_id: int) -> None:
    """``count`` listening radios on a 10 m grid, six to a row."""
    for i in range(count):
        radio = Radio(medium, first_id + i,
                      (5.0 + (i % 6) * 10.0, (i // 6) * 10.0))
        radio.on_receive = lambda frame, rssi: None
        radio.set_listening()


def saturating_sender(frames: int, receivers: int) -> Dict[str, Any]:
    """One sender back-to-back, ``receivers`` listeners in range.

    Each listener takes the full delivery path (audible set, PRR draw).
    Tracing is disabled — the common benchmark configuration — so this
    also measures the ``TraceLog.emit`` no-op guard.  No two frames
    ever overlap here; :func:`contended_frames_per_sec` is the leg
    where they do.
    """
    sim = Simulator(seed=11)
    medium = Medium(sim, UnitDiskModel(radius_m=100.0), TraceLog(enabled=False))
    sender = Radio(medium, 0, (0.0, 0.0))
    _add_listeners(medium, receivers, first_id=1)
    sent = [0]

    def send_next() -> None:
        if sent[0] >= frames:
            return
        sent[0] += 1
        sender.transmit("payload", 50, done=send_next)

    send_next()
    start = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - start
    delivered = sum(r.frames_received for r in medium.radios.values())
    return {
        "frames": sent[0],
        "deliveries": delivered,
        "wall_s": round(wall, 4),
        "frames_per_sec": round(sent[0] / wall),
        "deliveries_per_sec": round(delivered / wall),
    }


def contended_frames_per_sec(frames: int = 4_000, receivers: int = 24,
                             senders: int = 8) -> Dict[str, Any]:
    """The same fan-out with ``senders`` frames on the air at once.

    Each sender transmits back-to-back, CSMA-style (CCA probe, then
    send), started an eighth of an airtime apart, so every frame
    overlaps the other seven from start to end and every listener's
    outcome is decided by collision arbitration and capture — the path
    the single-sender leg never enters.
    """
    sim = Simulator(seed=11)
    medium = Medium(sim, LogDistanceModel(shadowing_sigma_db=2.0, seed=11),
                    TraceLog(enabled=False))
    _add_listeners(medium, receivers, first_id=100)
    sent = [0]
    busy = [0]
    airtime = Frame("payload", 50, 26, 0).airtime

    def sender_loop(radio: Radio):
        def send_next() -> None:
            if sent[0] >= frames:
                return
            sent[0] += 1
            busy[0] += radio.carrier_busy()
            radio.transmit("payload", 50, done=send_next)
        return send_next

    for k in range(senders):
        radio = Radio(medium, k, (k * 8.0, 15.0 + (k % 2) * 10.0))
        sim.schedule(k * airtime / senders, sender_loop(radio))
    start = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - start
    delivered = sum(r.frames_received for r in medium.radios.values())
    return {
        "contended_frames": sent[0],
        "contended_deliveries": delivered,
        "contended_collisions": medium.trace.count("radio.collision"),
        "contended_cca_busy": busy[0],
        "contended_wall_s": round(wall, 4),
        "contended_frames_per_sec": round(sent[0] / wall),
    }


# ----------------------------------------------------------------------
# 3. trial engine: serial vs parallel sweep
# ----------------------------------------------------------------------
def sweep_trial(side: int, seed: int) -> Dict[str, float]:
    """One representative experiment trial (module-level: picklable).

    Builds a ``side x side`` deployment, converges it, and reports
    join fraction plus event throughput — a scaled-down E2-style trial.
    """
    config = SystemConfig(stack=StackConfig(mac="csma"))
    system = IIoTSystem.build(grid_topology(side), config=config, seed=seed)
    system.add_field_sensors("temp", DiurnalField(mean=20.0))
    system.start()
    # Long enough that a trial dominates process-pool dispatch overhead.
    system.run(1800.0)
    return {
        "joined": system.joined_fraction(),
        "events": float(system.sim.events_processed),
    }


def trial_throughput(jobs: int, repeats: int = 3,
                     values=SWEEP_VALUES,
                     repetitions: int = SWEEP_REPETITIONS) -> Dict[str, Any]:
    """The acceptance sweep, serial vs parallel, rows compared.

    The legs are interleaved ``repeats`` times, each keeping its
    fastest wall time, so a time-shared host doesn't charge one leg
    for the other's scheduling luck.  On a single-core host the
    parallel leg must take the serial fast-path, so the expected
    speedup is ~1.0 — not the 0.72x pool-spawn tax the old per-call
    executor paid — and on a multi-core host the warm shared pool must
    actually win.
    """
    serial_s = parallel_s = float("inf")
    serial = parallel = None
    for _ in range(repeats):
        start = time.perf_counter()
        serial = Sweep("side").run(values, sweep_trial,
                                   repetitions=repetitions, jobs=1)
        serial_s = min(serial_s, time.perf_counter() - start)

        start = time.perf_counter()
        parallel = Sweep("side").run(values, sweep_trial,
                                     repetitions=repetitions, jobs=jobs)
        parallel_s = min(parallel_s, time.perf_counter() - start)

    identical = (serial.trials == parallel.trials
                 and json.dumps(serial.rows()) == json.dumps(parallel.rows()))
    trials = len(serial.trials)
    return {
        "trials": trials,
        "jobs": jobs,
        "serial_s": round(serial_s, 3),
        "parallel_s": round(parallel_s, 3),
        "serial_trials_per_sec": round(trials / serial_s, 2),
        "parallel_trials_per_sec": round(trials / parallel_s, 2),
        "speedup": round(serial_s / parallel_s, 2),
        "rows_identical": identical,
    }


# ----------------------------------------------------------------------
# 4. worker pool: cold spawn vs warm reuse
# ----------------------------------------------------------------------
def _pool_task(i: int) -> int:
    """Near-noop pool payload (module-level: picklable)."""
    return i


def pool_reuse_throughput(tasks: int = 96, workers: int = 2,
                          repeats: int = 3) -> Dict[str, Any]:
    """Dispatch latency of a cold pool (fork per dispatch) vs a warm one.

    The cold leg builds a fresh :class:`WorkerPool` for every dispatch
    — spawn, map, shutdown — which is what ``Sweep.run`` used to pay on
    *every* call.  The warm leg reuses one already-started pool, the
    behaviour the shared-pool engine now gives every sweep after the
    first.  The ratio is the amortized win of keeping workers alive;
    tasks are near-noops so dispatch overhead, not payload compute,
    dominates both legs.

    Uses :class:`WorkerPool` directly (not the executor) so the leg
    still exercises real fork+IPC on a single-core host, where the
    executor would rightly take its serial fast-path.
    """
    argses = [(i,) for i in range(tasks)]
    expected = list(range(tasks))
    try:
        cold_s = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            pool = WorkerPool(workers)
            assert pool.map(_pool_task, argses) == expected
            pool.shutdown()
            cold_s = min(cold_s, time.perf_counter() - start)

        warm_pool = WorkerPool(workers)
        try:
            warm_pool.map(_pool_task, argses)  # untimed: pays the fork
            warm_s = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                assert warm_pool.map(_pool_task, argses) == expected
                warm_s = min(warm_s, time.perf_counter() - start)
        finally:
            warm_pool.shutdown()
    except Exception as exc:  # no usable fork/spawn on this host
        return {"parallel": False, "reason": repr(exc)}
    return {
        "parallel": True,
        "tasks": tasks,
        "workers": workers,
        "cold_dispatch_s": round(cold_s, 4),
        "warm_dispatch_s": round(warm_s, 4),
        "warm_speedup": round(cold_s / warm_s, 2),
    }


# ----------------------------------------------------------------------
# 5. observability: what the instrumented run costs
# ----------------------------------------------------------------------
def _instrumented_run(mode: str, side: int = 4,
                      duration_s: float = 3600.0,
                      report_period_s: float = 30.0,
                      exemplar_cap: int = 4) -> Dict[str, Any]:
    """One deployment run: observability ``off``, ``sampled``, or ``full``.

    Tracing is off either way (the benchmark configuration), so the
    difference isolates the observability layer itself: registry
    updates, span allocation on the datagram/hop/MAC paths, and the
    per-callsite ``trace.obs`` checks.  Every non-root node reports a
    reading to the root periodically so the instrumented data path —
    not just idle timers — dominates the run.

    ``sampled`` keeps :data:`OBS_SAMPLE_RATE` of span traces in a ring
    of :data:`OBS_SPAN_MAX`; metrics stay exact regardless (the
    snapshot comes back so the caller can assert it).
    """
    config = SystemConfig(
        stack=StackConfig(mac="csma"), trace_enabled=False,
        observability=mode != "off",
        span_sample_rate=OBS_SAMPLE_RATE if mode == "sampled" else 1.0,
        span_max_stored=OBS_SPAN_MAX if mode == "sampled" else None,
        exemplar_max_per_bucket=exemplar_cap,
    )
    system = IIoTSystem.build(grid_topology(side), config=config, seed=13)
    system.add_field_sensors("temp", DiurnalField(mean=20.0))
    system.start()
    sim = system.sim
    root_id = system.topology.root_id

    def reporter(stack, offset: float):
        def send() -> None:
            stack.send_datagram(root_id, 7, payload="reading",
                                payload_bytes=24)
            sim.schedule(report_period_s, send)
        sim.schedule(120.0 + offset, send)  # after formation

    for node_id in sorted(system.nodes):
        if node_id != root_id:
            reporter(system.nodes[node_id].stack, offset=0.1 * node_id)
    start = time.perf_counter()
    system.run(duration_s)
    wall = time.perf_counter() - start
    out: Dict[str, Any] = {
        "events": float(system.sim.events_processed), "wall_s": wall,
    }
    if system.obs is not None:
        spans = system.obs.spans
        out["snapshot"] = system.obs.registry.snapshot()
        out["spans_stored"] = len(spans.spans)
        out["spans_sampled_out"] = spans.sampled_out
        out["spans_evicted"] = spans.evicted
    return out


def observability_overhead(repeats: int = 4,
                           duration_s: float = 3600.0) -> Dict[str, Any]:
    """Events/sec with the observability layer off, sampled, and full.

    The off-leg is the number the ≤5% regression gate watches; the
    headline ``overhead_pct`` is the price of the *sampled*
    configuration (the one perf-conscious deployments run), with the
    full-fidelity cost kept alongside as ``overhead_pct_full``.  All
    legs must process identical event counts — observation may cost
    wall time but never perturbs the simulation — and the sampled leg's
    metrics snapshot must equal the full leg's exactly: sampling thins
    stored spans, never counters.

    The legs are *interleaved* ``repeats`` times and each keeps its
    fastest wall time: on a time-shared machine the legs would
    otherwise sample different load conditions and the ratio would
    measure the scheduler, not the instrumentation.
    """
    walls = {"off": float("inf"), "sampled": float("inf"),
             "full": float("inf")}
    events: Dict[str, float] = {}
    sampled = full = None
    for _ in range(repeats):
        for mode in ("off", "sampled", "full"):
            leg = _instrumented_run(mode, duration_s=duration_s)
            events[mode] = leg["events"]
            walls[mode] = min(walls[mode], leg["wall_s"])
            if mode == "sampled":
                sampled = leg
            elif mode == "full":
                full = leg
    rates = {mode: events[mode] / walls[mode] for mode in walls}
    s_snap, f_snap = sampled["snapshot"], full["snapshot"]
    return {
        "events": int(events["off"]),
        "events_identical": len(set(events.values())) == 1,
        # Metric *values* only: exemplars are span-linked annotations,
        # so a sampled run legitimately links fewer of them.
        "metrics_identical": (
            s_snap.counters == f_snap.counters
            and s_snap.gauges == f_snap.gauges
            and s_snap.histograms == f_snap.histograms
        ),
        "events_per_sec_off": round(rates["off"]),
        "events_per_sec_on": round(rates["sampled"]),
        "events_per_sec_full": round(rates["full"]),
        "overhead_pct": round((rates["off"] / rates["sampled"] - 1.0) * 100.0, 1),
        "overhead_pct_full": round((rates["off"] / rates["full"] - 1.0) * 100.0, 1),
        "span_sample_rate": OBS_SAMPLE_RATE,
        "span_max_stored": OBS_SPAN_MAX,
        "spans_stored": sampled["spans_stored"],
        "spans_sampled_out": sampled["spans_sampled_out"],
        "spans_evicted": sampled["spans_evicted"],
    }


def attribution_overhead(repeats: int = 3,
                         duration_s: float = 3600.0) -> Dict[str, Any]:
    """Events/sec with exemplar reservoirs on (default cap) vs off.

    Exemplars are the latency-attribution hook: each histogram bucket
    keeps the first few ``(value, trace_id)`` pairs so ``repro explain``
    can walk from a p95 row to the span trees behind it.  The contract
    is that they are pure *annotation*: both legs run identical
    full-fidelity observability, must process identical event counts,
    and must produce identical metric *values* — the snapshots may
    differ only in the ``exemplars`` field itself.  The headline number
    is the reservoir's wall-time price, gated at <= 5% outside quick
    mode (it is a dict insert on the first ``cap`` hits per bucket and
    a no-op after, so it should be near zero).
    """
    walls = {"off": float("inf"), "on": float("inf")}
    events: Dict[str, float] = {}
    snaps: Dict[str, Any] = {}
    for _ in range(repeats):
        for mode in ("off", "on"):
            leg = _instrumented_run("full", duration_s=duration_s,
                                    exemplar_cap=4 if mode == "on" else 0)
            events[mode] = leg["events"]
            walls[mode] = min(walls[mode], leg["wall_s"])
            snaps[mode] = leg["snapshot"]
    on, off = snaps["on"], snaps["off"]
    entries = sum(
        len(bucket_entries)
        for _cap, buckets in on.exemplars.values()
        for _idx, bucket_entries in buckets
    )
    rates = {mode: events[mode] / walls[mode] for mode in walls}
    return {
        "events": int(events["off"]),
        "events_identical": len(set(events.values())) == 1,
        "metric_values_identical": (
            on.counters == off.counters and on.gauges == off.gauges
            and on.histograms == off.histograms
        ),
        "exemplar_series": len(on.exemplars),
        "exemplar_entries": entries,
        "exemplars_off_empty": not off.exemplars,
        "events_per_sec_exemplars_off": round(rates["off"]),
        "events_per_sec_exemplars_on": round(rates["on"]),
        "overhead_pct": round((rates["off"] / rates["on"] - 1.0) * 100.0, 1),
    }


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def run_perf_core(jobs: int = 0, quick: bool = False) -> Dict[str, Any]:
    """Run every leg; write ``BENCH_core.json`` (full runs).

    ``quick`` shrinks every leg to fit a tier-1 time budget and does
    **not** overwrite the committed baseline — it exists so
    ``make bench-perf-quick`` can smoke the whole bench in seconds.
    """
    jobs = resolve_jobs(jobs if jobs else None)
    if quick:
        payload = {
            "bench": "perf_core",
            "quick": True,
            "host": {
                "cpu_count": os.cpu_count(),
                "usable_cores": usable_cores(),
                "python": platform.python_version(),
            },
            "kernel": kernel_events_per_sec(events=40_000, repeats=2),
            "medium": medium_frames_per_sec(frames=1_500),
            "sweep": trial_throughput(jobs, repeats=1, values=(2, 3),
                                      repetitions=2),
            "pool_reuse": pool_reuse_throughput(tasks=48, repeats=2),
            "observability": observability_overhead(repeats=2,
                                                    duration_s=1200.0),
            "attribution": attribution_overhead(repeats=2,
                                                duration_s=1200.0),
        }
        return payload
    payload = {
        "bench": "perf_core",
        "host": {
            "cpu_count": os.cpu_count(),
            "usable_cores": usable_cores(),
            "python": platform.python_version(),
        },
        "kernel": kernel_events_per_sec(),
        "medium": medium_frames_per_sec(),
        "sweep": trial_throughput(jobs),
        "pool_reuse": pool_reuse_throughput(),
        "observability": observability_overhead(),
        "attribution": attribution_overhead(),
    }
    with open(BENCH_PATH, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return payload


def _assert_shape(payload: Dict[str, Any]) -> None:
    quick = payload.get("quick", False)
    assert payload["kernel"]["events_per_sec"] > 10_000
    assert payload["medium"]["frames_per_sec"] > 100
    assert payload["medium"]["deliveries"] > 0
    assert payload["medium"]["contended_frames_per_sec"] > 100
    # The contended leg must actually contend: arbitration decides
    # outcomes both ways (collisions and captured deliveries).
    assert payload["medium"]["contended_collisions"] > 0
    assert payload["medium"]["contended_deliveries"] > 0
    sweep = payload["sweep"]
    # The determinism contract is unconditional; the speedup demands
    # adapt to the host.
    assert sweep["rows_identical"], "parallel sweep diverged from serial"
    usable = payload["host"]["usable_cores"]
    if usable >= 4 and sweep["jobs"] >= 4:
        assert sweep["speedup"] >= 2.0, (
            f"expected >= 2x on {usable} cores, got {sweep['speedup']}x"
        )
    elif usable == 1:
        # The serial fast-path must engage: a single-core parallel leg
        # runs the same code as the serial leg, so ~1.0x — not the old
        # 0.72x of spawning a pool that cannot win.  The floor leaves
        # room for wall-clock noise only.
        floor = 0.8 if quick else 0.9
        assert sweep["speedup"] >= floor, (
            f"serial fast-path missing on 1 core: {sweep['speedup']}x"
        )
    pool = payload["pool_reuse"]
    if pool.get("parallel"):
        assert pool["warm_speedup"] >= 1.5, (
            f"warm pool only {pool['warm_speedup']}x over cold spawn"
        )
    obs = payload["observability"]
    # Observation must never perturb the simulation itself, and span
    # sampling must never touch the metrics.
    assert obs["events_identical"], "observability changed event counts"
    assert obs["metrics_identical"], "span sampling perturbed metrics"
    assert obs["events_per_sec_off"] > 1_000
    if not quick:
        # The acceptance ceiling; skipped in quick mode (too short to
        # be stable).
        assert obs["overhead_pct"] <= 15.0, (
            f"sampled observability costs {obs['overhead_pct']}%"
        )
    attribution = payload["attribution"]
    assert attribution["events_identical"], "exemplars changed event counts"
    assert attribution["metric_values_identical"], (
        "exemplar reservoirs perturbed metric values"
    )
    assert attribution["exemplars_off_empty"], (
        "exemplar_max_per_bucket=0 still recorded exemplars"
    )
    assert attribution["exemplar_entries"] > 0, (
        "exemplar leg recorded no exemplars to attribute from"
    )
    if not quick:
        assert attribution["overhead_pct"] <= 5.0, (
            f"exemplar reservoirs cost {attribution['overhead_pct']}%"
        )


def bench_perf_core(benchmark) -> None:
    from benchmarks._common import once

    payload = once(benchmark, run_perf_core)
    _assert_shape(payload)
    print(f"\nperf_core: kernel {payload['kernel']['events_per_sec']:,} ev/s, "
          f"medium {payload['medium']['frames_per_sec']:,} frames/s "
          f"({payload['medium']['contended_frames_per_sec']:,} contended), "
          f"sweep x{payload['sweep']['speedup']} with "
          f"jobs={payload['sweep']['jobs']}, "
          f"warm pool x{payload['pool_reuse'].get('warm_speedup', 'n/a')}, "
          f"obs overhead {payload['observability']['overhead_pct']}%, "
          f"exemplars {payload['attribution']['overhead_pct']}% "
          f"-> {BENCH_PATH}")


def export_payload_metrics(payload: Dict[str, Any], path: str) -> str:
    """Flatten the perf payload into a ``repro diff`` snapshot.

    Every numeric leaf becomes a gauge ``perf_core.<section>.<key>``
    (bools skipped — they are asserted, not diffed), so two runs can be
    compared with ``python -m repro diff``.
    """
    from repro.obs.export import write_metrics_json
    from repro.obs.registry import Registry

    registry = Registry()

    def walk(prefix: str, value: Any) -> None:
        if isinstance(value, dict):
            for key, sub in value.items():
                walk(f"{prefix}.{key}", sub)
        elif isinstance(value, bool):
            return
        elif isinstance(value, (int, float)):
            registry.set(prefix, float(value))

    for section in ("kernel", "medium", "sweep", "pool_reuse",
                    "observability", "attribution"):
        walk(f"perf_core.{section}", payload[section])
    write_metrics_json(registry.snapshot(), path)
    return path


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=0,
                        help="workers for the parallel sweep leg "
                             "(default: all cores)")
    parser.add_argument("--quick", action="store_true",
                        help="reduced counts, tier-1 time budget; does "
                             "not overwrite BENCH_core.json")
    parser.add_argument("--export-metrics", metavar="PATH", default=None,
                        help="also write the payload as a repro-diff "
                             "metrics snapshot (JSON)")
    args = parser.parse_args(argv)
    payload = run_perf_core(jobs=args.jobs, quick=args.quick)
    _assert_shape(payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    if not args.quick:
        print(f"\nwrote {BENCH_PATH}")
    if args.export_metrics:
        export_payload_metrics(payload, args.export_metrics)
        print(f"wrote {args.export_metrics}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
