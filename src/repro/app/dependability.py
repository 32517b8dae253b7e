"""``python -m repro dependability`` — the dependability gate.

Runs two built-in scenarios (``hvac-safety``, ``availability-probe``)
at a fixed seed, summarizes their
fault-aware checkers, and exits nonzero when either scenario records a
violation or the taxonomy's availability axis grades to zero.  With
``--export`` the summary is written as a focused
``repro.metrics/1`` snapshot — ``dependability.*`` gauges plus the run's
``fault.injected`` counters — the snapshot ``benchmarks/gates.py``
diffs, exactly, against its committed baseline.
"""

from __future__ import annotations

import argparse
from typing import List, Optional, Tuple

from repro.app.scenarios import BUILTIN_SCENARIOS
from repro.checking.availability import AvailabilityChecker
from repro.checking.base import CheckerSuite, Violation
from repro.checking.safety import ComfortEnvelopeChecker
from repro.core.taxonomy import availability_score
from repro.obs.registry import MetricsSnapshot, Registry

#: The gate's fixed seed: the snapshot it exports must be byte-stable.
GATE_SEED = 2018


def _run_scenario(name: str, seed: int,
                  registry: Registry) -> Tuple[List[Violation], CheckerSuite]:
    """One built-in scenario's run, summarized into ``registry``."""
    suite = BUILTIN_SCENARIOS[name].run(seed).checkers
    violations = suite.finish()
    suite.detach()

    registry.set("dependability.violations", float(len(violations)),
                 scenario=name)
    for checker in suite.checkers:
        if isinstance(checker, AvailabilityChecker):
            registry.set("dependability.availability.mean",
                         round(checker.mean_availability(), 6), scenario=name)
            registry.set("dependability.availability.min",
                         round(checker.min_availability(), 6), scenario=name)
            registry.set("dependability.availability.reachable_mean",
                         round(checker.mean_reachable(), 6), scenario=name)
            registry.set("dependability.availability.score",
                         round(availability_score(checker.mean_availability()), 6),
                         scenario=name)
        elif isinstance(checker, ComfortEnvelopeChecker):
            registry.set("dependability.comfort.samples",
                         float(checker.samples), scenario=name)
            registry.set("dependability.comfort.fault_windows",
                         float(len(checker.fault_windows)), scenario=name)

    # Carry the run's fault telemetry into the gated snapshot, labeled
    # by scenario, so a plan edit that changes what gets injected fails
    # the exact-diff even when every checker stays clean.
    obs = getattr(suite.trace, "obs", None)
    if obs is not None:
        for key, value in sorted(obs.registry.snapshot().counters.items(),
                                 key=repr):
            metric_name, labels = key
            if metric_name == "fault.injected":
                registry.counter(metric_name, scenario=name,
                                 **dict(labels)).inc(value)
    return violations, suite


def run_gate(seed: int = GATE_SEED) -> Tuple[bool, List[str], MetricsSnapshot]:
    """The ``hvac-safety`` and ``availability-probe`` built-ins at ``seed``.

    Returns whether the gate passed (no violation, an availability axis
    that does not grade to zero), the report lines, and the gated
    snapshot — what ``python -m repro dependability`` prints and
    exports, and what the ``dependability`` row of ``benchmarks/gates.py``
    diffs against its committed baseline.
    """
    registry = Registry()
    lines: List[str] = []
    passed = True
    availability: Optional[float] = None
    for name in ("hvac-safety", "availability-probe"):
        violations, suite = _run_scenario(name, seed, registry)
        verdict = "OK" if not violations else f"{len(violations)} VIOLATION(S)"
        lines.append(f"{name}: seed {seed}, {verdict}")
        lines.extend(f"  {violation}" for violation in violations[:10])
        passed = passed and not violations
        for checker in suite.checkers:
            if isinstance(checker, AvailabilityChecker):
                availability = checker.mean_availability()
                lines.append(f"  service availability: mean "
                             f"{availability:.4f}, min "
                             f"{checker.min_availability():.4f}, reachable "
                             f"mean {checker.mean_reachable():.4f}")

    if availability is None:
        lines.append("availability axis: NOT MEASURED")
        passed = False
    else:
        score = availability_score(availability)
        lines.append(f"availability axis score: {score:.3f} "
                     f"(grade anchors: 0.999 good, 0.900 bad)")
        if score <= 0.0:
            lines.append("availability axis grades to zero — gate FAILED")
            passed = False
    return passed, lines, registry.snapshot()


def dependability_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro dependability",
        description="Run the fault-plan dependability scenarios and gate "
                     "on violations and the taxonomy availability axis.",
    )
    parser.add_argument("--seed", type=int, default=GATE_SEED,
                        help=f"scenario seed (default: {GATE_SEED})")
    parser.add_argument("--export", metavar="PATH",
                        help="write the summary metrics snapshot "
                             "(repro.metrics/1 JSON) to PATH")
    args = parser.parse_args(argv)

    passed, lines, snapshot = run_gate(args.seed)
    print("\n".join(lines))
    if args.export:
        from repro.obs.export import write_metrics_json
        series = write_metrics_json(snapshot, args.export)
        print(f"exported {series} series -> {args.export}")
    return 0 if passed else 1
