"""One repetition: one workload, one seed, set up and timed once.

The command runs every repetition through :func:`run_rep` in a fresh
child process (so ``setup_s`` includes imports and ``rss_peak_mb`` is
the child's own high-water mark); the tests call it in-process at tiny
sizes.
"""

from __future__ import annotations

import gc
import time
import traceback
from typing import Any, Dict, Optional

from benchmarks.layers.host import HostSpeed, rss_peak_mb
from benchmarks.layers.trace import LayerTracer
from benchmarks.layers.workloads import WORKLOADS, advance


def run_rep(name: str, seed: int, scale: float, traced: bool = False,
            trace_out: Optional[str] = None,
            started_at: Optional[float] = None,
            **sizes: Any) -> Dict[str, Any]:
    """Run one repetition and return everything measured as plain data.

    ``started_at`` is the ``perf_counter`` reading taken when the child
    process began, so set-up time covers interpreter-side imports too.
    ``setup_s`` and ``ops_per_s`` are at reference host speed (see
    :class:`~benchmarks.layers.host.HostSpeed`); ``raw_setup_s``,
    ``wall_s`` and ``raw_ops_per_s`` are the seconds as they passed.
    An exception, like a failed check, is reported in the result (the
    caller counts every op of the run as failed), never raised.
    """
    started = started_at if started_at is not None else time.perf_counter()
    cls = WORKLOADS[name]
    result: Dict[str, Any] = {
        "workload": name, "seed": seed, "scale": scale, "traced": traced,
        "error": None,
    }
    tracer = LayerTracer(observed=cls.observed).install() if traced else None
    try:
        host = HostSpeed()
        workload = cls(seed, scale, **sizes)
        workload.setup(host.tick)
        gc.collect()
        raw_setup_s = time.perf_counter() - started - host.spent_s
        setup_speed = host.speed()

        def tick() -> None:
            began = time.perf_counter()
            host.tick()
            if tracer is not None:
                tracer.exclude(time.perf_counter() - began)

        if tracer is not None:
            tracer.start()
        wall_s = advance(workload.sim, workload.timed_until, tick)
        if tracer is not None:
            tracer.stop()
        timed_speed = host.speed()
        result.update(workload.finish())
        result["sim"]["op_fail_ratio"] = (
            1.0 - workload.completed / workload.attempted)
        result.update(
            setup_s=raw_setup_s * setup_speed,
            raw_setup_s=raw_setup_s,
            host_speed_setup=setup_speed,
            wall_s=wall_s,
            host_speed=timed_speed,
            sim_s=workload.sim.now,
            attempted=workload.attempted,
            completed=workload.completed,
            ops_per_s=workload.completed / (wall_s * timed_speed),
            raw_ops_per_s=workload.completed / wall_s,
        )
        if tracer is not None:
            result["trace"] = tracer.report()
            if trace_out is not None:
                tracer.write_raw(trace_out)
    except Exception:  # the boundary: report, let the parent fail the run
        result["error"] = traceback.format_exc()
    finally:
        if tracer is not None:
            tracer.uninstall()
    result["rss_peak_mb"] = rss_peak_mb()
    return result
