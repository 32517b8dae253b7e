"""Kernel-floor census — what one event costs, and how many a run makes.

Every layered workload pays the kernel once per event and once per
push (DESIGN.md, "Hot single-trial paths").  This prints

- the best of five µs per event of two synthetic loops: a *no-op
  chain* (each event schedules the next one and does nothing else) and
  a *cancel/re-arm loop* (the same chain, where every event also
  re-arms a watchdog :class:`~repro.sim.timers.Timer` that never fires:
  one cancel and one push more per event);
- the best of five µs of the two allocations a fully observed run
  makes per traced occurrence: one ``TraceLog.emit`` of a
  ``radio.rx``-shaped record under a whole-stream subscriber (the
  bounded tail), and one span ``start`` + ``finish`` of a
  ``radio.airtime``-shaped child span, then the bytes each such span
  leaves allocated once stored (tracemalloc over the same loop);
- the bytes one cached link keeps: tracemalloc over the cold fill of
  ``campus_medium``'s 1 000 senders on its campus topology at
  ``--seed`` (every neighbourhood built again from nothing);
- the bytes one attached radio keeps: tracemalloc over attaching
  ``campus_medium``'s 10 000 radios, as its set-up does, to a fresh
  medium (its slot in the medium's grid included);
- the bytes one pending event keeps: tracemalloc over queuing
  ``campus_medium``'s timed section (10 000 sends) once more on the
  simulator its set-up left, each entry with its own time and
  sequence number as in the run;
- the event census of one layered workload's timed section
  (``--workload``, default ``grid_csma_collect``) at ``--seed``, with
  the layered benchmark's own set-up and slicing, untraced: events run,
  heap pushes, events queued during set-up and still pending when the
  section starts, events cancelled before they fired, zero-delay
  pushes (``call_soon`` and friends) and heap compactions;
- the same per callback (qualified name: pushed in the section, queued
  at its start, fired and cancelled before fire of both), the twelve
  with the most events;
- the *outcome digest*: sha256 of the workload's ``sim_digest`` parts
  without ``events`` — what must not move when a change only removes
  events nothing observes, while ``sim_digest`` itself hashes
  ``events_processed``;
- the *delivery census* of a second, identical pass over the timed
  section: per delivered frame, the receivers ``Medium._deliver``
  walked, the listeners among them (those it judged for capture), the
  interferers resolved, the PRR draws, and the ``rssi_by_id`` probes per
  listener; then each outcome category per frame.

The censuses count through instance attributes: ``schedule``/
``schedule_at`` on that one simulator, and ``_deliver``,
``_interferers`` and ``_rng.random`` on that one medium (its
interferer maps are handed to ``_deliver`` as copies that count their
``get`` calls).  The digest parts are captured by shadowing
``benchmarks.layers.workloads.sim_digest`` in this process.  So it runs
unchanged on any checkout with the same kernel, medium and workload API.

    make kernel-floor         # python benchmarks/kernel_floor.py --seed 2018
    make kernel-floor WORKLOAD=campus_medium SEED=2021
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import tracemalloc
from collections import Counter
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(_ROOT, "src"), _ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from benchmarks.layers import workloads
from benchmarks.layers.workloads import (
    DEFAULT_SCALE, WORKLOADS, CampusMedium, advance)
from repro.deployment.topology import campus_topology
from repro.obs import GATED_SPAN_CATEGORIES
from repro.obs.spans import SpanTracer
from repro.radio.medium import Medium, Radio
from repro.radio.propagation import LogDistanceModel
from repro.sim.kernel import Simulator
from repro.sim.timers import Timer
from repro.sim.trace import TraceLog

#: Events per synthetic loop, and how many times each is run.
LOOP_EVENTS = 200_000
#: Spans per span loop: every one stays stored, as in an observed run.
LOOP_SPANS = 50_000
REPEATS = 5
#: The delivery outcome categories, as ``TraceLog.counters`` keys.
OUTCOMES = ("radio.miss", "radio.collision", "radio.drop", "radio.rx")
#: Callbacks listed by the per-callback census.
TOP_CALLBACKS = 12


def noop_chain(events: int) -> float:
    """µs per event of a chain of ``events`` events that do nothing."""
    sim = Simulator(seed=1)
    left = events

    def tick() -> None:
        nonlocal left
        left -= 1
        if left:
            sim.schedule(0.001, tick)

    sim.schedule(0.001, tick)
    start = perf_counter()
    sim.run()
    return (perf_counter() - start) / sim.events_processed * 1e6


def rearm_loop(events: int) -> float:
    """µs per event of the chain when each event also re-arms a
    watchdog that never fires."""
    sim = Simulator(seed=1)
    watchdog = Timer(sim, lambda: None)
    left = events

    def tick() -> None:
        nonlocal left
        left -= 1
        watchdog.start(1.0)
        if left:
            sim.schedule(0.001, tick)
        else:
            watchdog.cancel()

    sim.schedule(0.001, tick)
    start = perf_counter()
    sim.run()
    return (perf_counter() - start) / sim.events_processed * 1e6


def emit_loop(records: int) -> float:
    """µs per ``TraceLog.emit`` of a ``radio.rx``-shaped record while a
    whole-stream subscriber (the tail) watches every category."""
    emit = TraceLog(enabled=True).emit
    start = perf_counter()
    for _ in range(records):
        emit(1.0, "radio.rx", node=3, sender=4, size=40)
    return (perf_counter() - start) / records * 1e6


def span_loop(spans: int) -> float:
    """µs per span ``start`` + ``finish`` of a ``radio.airtime``-shaped
    child of one root, on a tracer set up as an observed run's."""
    tracer = SpanTracer(pinned_categories=GATED_SPAN_CATEGORIES)
    start_span, finish = tracer.start, tracer.finish
    root = start_span(None, "net.send", 1, 0.0)
    start = perf_counter()
    for _ in range(spans):
        finish(start_span(root, "radio.airtime", node=1, t=1.0, size=40), 1.5)
    return (perf_counter() - start) / spans * 1e6


def census(workload_name: str = "grid_csma_collect", seed: int = 2018,
           scale: float = DEFAULT_SCALE
           ) -> Tuple[Dict[str, int], List[Tuple[str, int, int, int, int]],
                      str]:
    """The event census of ``workload_name``'s timed section: the
    totals, ``(qualname, pushed, queued, fired, cancelled before fire)``
    per callback — pushed in the section, queued during set-up and
    pending when it starts, fired or cancelled of both — most events
    first, and the outcome digest."""
    workload = WORKLOADS[workload_name](seed, scale)
    workload.setup(lambda: None)
    sim = workload.sim
    pushes: List[Tuple[str, Any]] = []
    # The heap's entries are the handles themselves.
    queued = [(_name(handle.callback), handle)
              for handle in sim._heap if handle.pending]
    zero = 0
    depth = 0

    def counted(method: Callable[..., Any], is_zero: Callable[[float], bool]
                ) -> Callable[..., Any]:
        # A push is counted by the outermost of the two methods only:
        # ``schedule`` may delegate to ``schedule_at``.
        def wrapper(when: float, callback: Callable[[], None],
                    priority: int = 0) -> Any:
            nonlocal zero, depth
            depth += 1
            try:
                handle = method(when, callback, priority)
            finally:
                depth -= 1
            if depth == 0:
                pushes.append((_name(callback), handle))
                zero += is_zero(when)
            return handle
        return wrapper

    sim.schedule = counted(sim.schedule, lambda delay: delay == 0.0)
    sim.schedule_at = counted(sim.schedule_at, lambda time: time == sim.now)
    events = sim.events_processed
    compactions = sim._compactions
    try:
        advance(sim, workload.timed_until, lambda: None)
    finally:
        del sim.schedule, sim.schedule_at
    totals = {
        "events": sim.events_processed - events,
        "pushes": len(pushes),
        "queued at set-up": len(queued),
        "cancelled before fire": sum(
            1 for _, h in pushes + queued if h.cancelled),
        "zero-delay pushes": zero,
        "compactions": sim._compactions - compactions,
    }
    pushed: Counter = Counter(name for name, _ in pushes)
    inherited: Counter = Counter(name for name, _ in queued)
    fired: Counter = Counter()
    cancelled: Counter = Counter()
    for name, handle in pushes + queued:
        fired[name] += handle.fired
        cancelled[name] += handle.cancelled
    rows = [(name, pushed[name], inherited[name], fired[name], cancelled[name])
            for name, _ in (pushed + inherited).most_common()]
    return totals, rows, outcome_digest(workload)


def _name(callback: Callable[[], None]) -> str:
    return getattr(callback, "__qualname__", type(callback).__qualname__)


def delivery_census(workload_name: str = "grid_csma_collect",
                    seed: int = 2018, scale: float = DEFAULT_SCALE,
                    **sizes: Any) -> Dict[str, float]:
    """What ``Medium._deliver`` did over ``workload_name``'s timed
    section: totals of frames delivered, receivers walked, listeners,
    interferers, PRR draws and interferer probes, and each outcome
    category's count (``sizes`` go to the workload, as in
    ``run.py --rep``)."""
    workload = WORKLOADS[workload_name](seed, scale, **sizes)
    workload.setup(lambda: None)
    system = getattr(workload, "system", None)
    medium = workload.medium if system is None else system.medium
    counters = medium.trace.counters
    totals = dict.fromkeys(
        ("frames", "walked", "interferers", "draws", "probes"), 0)
    deliver, interferers = medium._deliver, medium._interferers
    rng = medium._rng
    draw = rng.random

    class ProbedMap(dict):
        """An interferer's ``rssi_by_id``, copied, counting ``get``."""

        def get(self, key: Any, default: Any = None) -> Any:
            totals["probes"] += 1
            return dict.get(self, key, default)

    def counted_deliver(tx: Any, entry: Any) -> None:
        totals["frames"] += 1
        totals["walked"] += len(entry.radios)
        deliver(tx, entry)

    def counted_interferers(tx: Any) -> List[Dict[int, float]]:
        maps = [ProbedMap(m) for m in interferers(tx)]
        totals["interferers"] += len(maps)
        return maps

    def counted_draw() -> float:
        totals["draws"] += 1
        return draw()

    before = {category: counters.get(category, 0) for category in OUTCOMES}
    medium._deliver = counted_deliver
    medium._interferers = counted_interferers
    rng.random = counted_draw
    try:
        advance(workload.sim, workload.timed_until, lambda: None)
    finally:
        del medium._deliver, medium._interferers, rng.random
    for category in OUTCOMES:
        totals[category] = counters.get(category, 0) - before[category]
    totals["listeners"] = sum(totals[category] for category in OUTCOMES
                              if category != "radio.miss")
    return totals


def outcome_digest(workload: Any) -> str:
    """Run ``workload.finish()`` and hash its ``sim_digest`` parts
    without ``events``."""
    original = workloads.sim_digest
    captured: List[Dict[str, Any]] = []

    def capturing(parts: Dict[str, Any]) -> str:
        captured.append(parts)
        return original(parts)

    workloads.sim_digest = capturing
    try:
        workload.finish()
    finally:
        workloads.sim_digest = original
    (parts,) = captured
    return original({k: v for k, v in parts.items() if k != "events"})


def span_bytes(spans: int) -> float:
    """Bytes per span that :func:`span_loop`'s spans leave allocated
    once stored, by tracemalloc (the loop is not timed under it)."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracer = SpanTracer(pinned_categories=GATED_SPAN_CATEGORIES)
        root = tracer.start(None, "net.send", 1, 0.0)
        for _ in range(spans):
            tracer.finish(tracer.start(root, "radio.airtime", node=1, t=1.0,
                                       size=40), 1.5)
        gc.collect()
        return (tracemalloc.get_traced_memory()[0] - before) / spans
    finally:
        tracemalloc.stop()


def neighbourhood_bytes(medium: Any, senders: List[Any]) -> Tuple[float, int]:
    """Bytes per link that building ``senders``' neighbourhoods on
    ``medium`` leaves allocated (tracemalloc; every cached one is
    dropped first), and the links they hold."""
    medium._neighborhoods.clear()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        links = sum(len(medium._neighborhood(radio).radios)
                    for radio in senders)
        gc.collect()
        return (tracemalloc.get_traced_memory()[0] - before) / links, links
    finally:
        tracemalloc.stop()


def campus_link_bytes(seed: int, **sizes: Any) -> Tuple[float, int]:
    """:func:`neighbourhood_bytes` of ``campus_medium``'s senders, on the
    medium its set-up (the cold pass) built (``sizes`` go to the
    workload, as in ``run.py --rep``)."""
    workload = CampusMedium(seed, **sizes)
    workload.setup(lambda: None)
    medium = workload.medium
    senders = [medium.radios[node_id] for node_id in medium._neighborhoods]
    return neighbourhood_bytes(medium, senders)


def campus_radio_bytes(seed: int, **sizes: Any) -> Tuple[float, int]:
    """Bytes per radio that attaching ``campus_medium``'s radios leaves
    allocated (tracemalloc), each given an upcall and set listening as
    its set-up does, on a medium built as it builds it; and the radios
    attached (``sizes`` go to the workload, as in ``run.py --rep``)."""
    workload = CampusMedium(seed, **sizes)
    topology = campus_topology(workload.buildings,
                               workload.NODES_PER_BUILDING, seed=seed)
    model = LogDistanceModel(path_loss_exponent=3.5, shadowing_sigma_db=2.0,
                             seed=seed)
    medium = Medium(Simulator(seed=seed), model, TraceLog(enabled=False))

    def discard(frame: Any, rssi: float) -> None:
        pass

    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for node_id in topology.node_ids():
            radio = Radio(medium, node_id, topology.positions[node_id])
            radio.on_receive = discard
            radio.set_listening()
        gc.collect()
        radios = len(medium.radios)
        return (tracemalloc.get_traced_memory()[0] - before) / radios, radios
    finally:
        tracemalloc.stop()


def campus_event_bytes(seed: int, **sizes: Any) -> Tuple[float, int]:
    """Bytes per pending event that queuing ``campus_medium``'s timed
    section once more leaves allocated (tracemalloc), on the simulator
    its set-up left; and the events queued (``sizes`` go to the
    workload, as in ``run.py --rep``)."""
    workload = CampusMedium(seed, **sizes)
    workload.setup(lambda: None)
    sim = workload.sim
    queued = len(sim._heap)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        workload._schedule_rounds(workload.rounds)
        gc.collect()
        events = len(sim._heap) - queued
        return (tracemalloc.get_traced_memory()[0] - before) / events, events
    finally:
        tracemalloc.stop()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=2018)
    parser.add_argument("--workload", choices=tuple(WORKLOADS),
                        default="grid_csma_collect")
    args = parser.parse_args()

    print(f"kernel floor, best of {REPEATS} x {LOOP_EVENTS} events:")
    for name, loop in (("no-op chain", noop_chain),
                       ("cancel/re-arm loop", rearm_loop)):
        best = min(loop(LOOP_EVENTS) for _ in range(REPEATS))
        print(f"  {name:24s}{best:8.2f} us/event")
    print(f"observation floor, best of {REPEATS}:")
    best = min(emit_loop(LOOP_EVENTS) for _ in range(REPEATS))
    print(f"  {'emit, stream watched':24s}{best:8.2f} us/record")
    best = min(span_loop(LOOP_SPANS) for _ in range(REPEATS))
    print(f"  {'span start + finish':24s}{best:8.2f} us/span")
    print(f"  {'span stored':24s}{span_bytes(LOOP_SPANS):8.1f} B/span")
    per_link, links = campus_link_bytes(args.seed)
    print(f"  {'neighbourhood stored':24s}{per_link:8.1f} B/link  "
          f"(campus_medium seed {args.seed}: {links} links)")
    per_radio, radios = campus_radio_bytes(args.seed)
    print(f"  {'radio stored':24s}{per_radio:8.1f} B/radio "
          f"(campus_medium seed {args.seed}: {radios} radios)")
    per_event, events = campus_event_bytes(args.seed)
    print(f"  {'event pending':24s}{per_event:8.1f} B/event "
          f"(campus_medium seed {args.seed}: {events} events)")
    totals, rows, digest = census(args.workload, args.seed)
    print(f"{args.workload} seed {args.seed}, timed section:")
    for name, value in totals.items():
        print(f"  {name:24s}{value:8d}")
    print(f"  {'callback':52s}{'pushed':>8s}{'queued':>8s}{'fired':>8s}"
          f"{'cancelled':>10s}")
    for name, pushed, queued, fired, cancelled in rows[:TOP_CALLBACKS]:
        print(f"  {name:52s}{pushed:8d}{queued:8d}{fired:8d}{cancelled:10d}")
    print(f"outcome digest (sim_digest parts without events): {digest}")
    delivery = delivery_census(args.workload, args.seed)
    frames = max(1, delivery["frames"])
    print(f"{args.workload} seed {args.seed}, delivery census "
          f"({delivery['frames']} frames delivered):")
    for name in ("walked", "listeners", "interferers", "draws"):
        print(f"  {name + ' per frame':24s}{delivery[name] / frames:8.2f}")
    print(f"  {'probes per listener':24s}"
          f"{delivery['probes'] / max(1, delivery['listeners']):8.2f}")
    for category in OUTCOMES:
        print(f"  {category + ' per frame':24s}"
              f"{delivery[category] / frames:8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
