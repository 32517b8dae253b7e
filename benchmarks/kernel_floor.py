"""Kernel-floor census — what one event costs, and how many a run makes.

Every full-stack workload pays the kernel once per event and once per
push (DESIGN.md, "Hot single-trial paths").  This prints

- the best of five µs per event of two synthetic loops: a *no-op
  chain* (each event schedules the next one and does nothing else) and
  a *cancel/re-arm loop* (the same chain, where every event also
  re-arms a watchdog :class:`~repro.sim.timers.Timer` that never fires:
  one cancel and one push more per event);
- the event census of ``grid_csma_collect``'s timed section at ``--seed``
  (the layered benchmark's own set-up and slicing, untraced): events
  run, heap pushes, pushes cancelled before they fired, zero-delay
  pushes (``call_soon`` and friends) and heap compactions.

The census counts through instance attributes that shadow
``schedule``/``schedule_at`` on that one simulator, so it runs
unchanged on any checkout with the same kernel API.

    make kernel-floor         # python benchmarks/kernel_floor.py --seed 2018
"""

from __future__ import annotations

import argparse
import os
import sys
from time import perf_counter
from typing import Any, Callable, Dict, List

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(_ROOT, "src"), _ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from benchmarks.layers.workloads import GridCsmaCollect, advance
from repro.sim.kernel import Simulator
from repro.sim.timers import Timer

#: Events per synthetic loop, and how many times each is run.
LOOP_EVENTS = 200_000
REPEATS = 5


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


def census(seed: int) -> Dict[str, int]:
    """The event census of ``grid_csma_collect``'s timed section."""
    workload = GridCsmaCollect(seed)
    workload.setup(lambda: None)
    sim = workload.sim
    handles: List[Any] = []
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
                handles.append(handle)
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
    return {
        "events": sim.events_processed - events,
        "pushes": len(handles),
        "cancelled before fire": sum(
            1 for h in handles if h.cancelled and not h.fired),
        "zero-delay pushes": zero,
        "compactions": sim._compactions - compactions,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=2018)
    args = parser.parse_args()

    print(f"kernel floor, best of {REPEATS} x {LOOP_EVENTS} events:")
    for name, loop in (("no-op chain", noop_chain),
                       ("cancel/re-arm loop", rearm_loop)):
        best = min(loop(LOOP_EVENTS) for _ in range(REPEATS))
        print(f"  {name:24s}{best:8.2f} us/event")
    print(f"grid_csma_collect seed {args.seed}, timed section:")
    for name, value in census(args.seed).items():
        print(f"  {name:24s}{value:8d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
