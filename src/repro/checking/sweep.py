"""The deterministic seed-sweep harness.

A *scenario* is a callable ``scenario(seed) -> CheckerSuite``: it builds
a system, attaches checkers, drives the simulation (typically under an
installed :class:`~repro.faults.plan.FaultPlan`, which the bundle below
then carries), and returns the suite.  The :class:`SeedSweepRunner` executes the scenario across many
seeds, asserts zero invariant violations, and — because every run is a
pure function of its seed — a failure reduces to a minimal
:class:`ReproBundle`: the seed, the scenario name, the violation
records, and the trailing trace window leading up to the first breach
(taken from the log's bounded tail, so the scenario must build its
:class:`~repro.sim.trace.TraceLog` enabled).
Re-running the same scenario with the bundled seed reproduces the
failure exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.checking.base import CheckerSuite, Violation
from repro.core.experiment import seeds_for
from repro.parallel import TrialExecutor
from repro.sim.trace import TraceRecord

Scenario = Callable[[int], CheckerSuite]


class InvariantViolationError(AssertionError):
    """A seed sweep found invariant violations; carries the bundle."""

    def __init__(self, bundle: "ReproBundle") -> None:
        super().__init__(bundle.summary())
        self.bundle = bundle


@dataclass
class ReproBundle:
    """The minimal artifact needed to reproduce one failing run."""

    scenario: str
    seed: int
    violations: List[Violation]
    trace_tail: List[TraceRecord] = field(default_factory=list)
    #: Rendered packet-lifecycle span trees (repro.obs) overlapping the
    #: violation window — empty unless the scenario ran with spans on.
    span_trees: List[str] = field(default_factory=list)
    #: Rendered flight-recorder dumps (repro.obs.recorder) — empty
    #: unless the scenario ran with telemetry + recorder attached.
    flight_dumps: List[str] = field(default_factory=list)
    #: The injection script that produced this run
    #: (``FaultPlan.to_jsonable()``), when one was installed.
    fault_plan: Optional[Dict[str, Any]] = None

    def summary(self, max_violations: int = 10, max_trace: int = 20) -> str:
        """Human-readable repro recipe."""
        lines = [
            f"scenario={self.scenario!r} seed={self.seed}: "
            f"{len(self.violations)} violation(s)",
        ]
        for violation in self.violations[:max_violations]:
            lines.append(f"  {violation}")
        if len(self.violations) > max_violations:
            lines.append(f"  ... {len(self.violations) - max_violations} more")
        if self.fault_plan is not None:
            clauses = self.fault_plan.get("clauses", [])
            lines.append(f"  fault plan ({len(clauses)} clause(s)):")
            for clause in clauses:
                detail = ", ".join(f"{k}={v}" for k, v in sorted(clause.items())
                                   if k not in ("kind", "at_s"))
                lines.append(f"    {clause['kind']} @ t={clause['at_s']:g}s"
                             f"  {detail}")
        if self.trace_tail:
            lines.append(f"  trailing trace ({len(self.trace_tail)} records,"
                         f" last {max_trace} shown):")
            for record in self.trace_tail[-max_trace:]:
                lines.append(
                    f"    t={record.time:.3f} {record.category}"
                    f" node={record.node} {record.data}"
                )
        if self.span_trees:
            lines.append(f"  packet lifecycles in the violation window "
                         f"({len(self.span_trees)} trace(s)):")
            for tree in self.span_trees:
                for tree_line in tree.splitlines():
                    lines.append(f"    {tree_line}")
        if self.flight_dumps:
            lines.append(f"  flight recorder ({len(self.flight_dumps)} dump(s)):")
            for dump in self.flight_dumps:
                for dump_line in dump.splitlines():
                    lines.append(f"    {dump_line}")
        lines.append(f"  repro: rerun scenario {self.scenario!r} "
                     f"with seed={self.seed}")
        return "\n".join(lines)


@dataclass
class SweepOutcome:
    """One seed's result."""

    seed: int
    violations: List[Violation]
    bundle: Optional[ReproBundle] = None

    @property
    def clean(self) -> bool:
        return not self.violations


class SeedSweepRunner:
    """Runs a scenario across seeds and asserts zero violations.

    Parameters
    ----------
    name:
        Scenario name, recorded in repro bundles.
    scenario:
        ``scenario(seed) -> CheckerSuite`` (see module docstring).
    trace_window_s:
        How much trailing simulated time of the trace to capture into a
        repro bundle when a run fails.
    """

    #: How many rendered span trees a repro bundle carries at most.
    MAX_BUNDLE_TRACES = 3

    def __init__(self, name: str, scenario: Scenario,
                 trace_window_s: float = 120.0) -> None:
        self.name = name
        self.scenario = scenario
        self.trace_window_s = trace_window_s

    # ------------------------------------------------------------------
    def run_seed(self, seed: int) -> SweepOutcome:
        """One deterministic run; violations become a repro bundle."""
        suite = self.scenario(seed)
        violations = suite.finish()
        suite.detach()
        bundle = None
        if violations:
            window_start = min(
                suite.sim.now - self.trace_window_s,
                violations[0].time,
            )
            tail = [r for r in suite.trace.tail if r.time >= window_start]
            span_trees = self._span_trees(suite, window_start)
            obs = getattr(suite.trace, "obs", None)
            recorder = getattr(obs, "recorder", None)
            flight_dumps = recorder.render_all() if recorder is not None else []
            plan = getattr(suite.trace, "fault_plan", None)
            bundle = ReproBundle(self.name, seed, violations, tail,
                                 span_trees=span_trees,
                                 flight_dumps=flight_dumps,
                                 fault_plan=(plan.to_jsonable()
                                             if plan is not None else None))
        return SweepOutcome(seed=seed, violations=violations, bundle=bundle)

    def _span_trees(self, suite: CheckerSuite, window_start: float) -> List[str]:
        """Rendered lifecycle trees overlapping the violation window,
        when the scenario ran with span tracing attached."""
        obs = getattr(suite.trace, "obs", None)
        if obs is None:
            return []
        trace_ids = obs.spans.traces_overlapping(window_start, suite.sim.now)
        return [obs.spans.render(tid)
                for tid in trace_ids[-self.MAX_BUNDLE_TRACES:]]

    def run(self, seeds: Sequence[int], jobs: int = 1) -> List[SweepOutcome]:
        """Run every seed; ``jobs`` > 1 fans the runs out over a process
        pool (outcomes — including repro bundles — are merged by seed
        index, so the list is identical to a serial run's).

        Scenarios that cannot be pickled (locally-defined closures) fall
        back to serial execution transparently.
        """
        executor = TrialExecutor(jobs)
        return executor.map(self.run_seed, [(seed,) for seed in seeds])

    def run_count(self, repetitions: int, base_seed: int = 1,
                  jobs: int = 1) -> List[SweepOutcome]:
        """Run over the standard deterministic seed list."""
        return self.run(seeds_for(base_seed, repetitions), jobs=jobs)

    # ------------------------------------------------------------------
    def assert_clean(self, outcomes: Sequence[SweepOutcome]) -> None:
        """Raise :class:`InvariantViolationError` on the first failure."""
        for outcome in outcomes:
            if outcome.bundle is not None:
                raise InvariantViolationError(outcome.bundle)

    def sweep(self, repetitions: int, base_seed: int = 1,
              jobs: int = 1) -> List[SweepOutcome]:
        """``run_count`` + ``assert_clean`` in one call."""
        outcomes = self.run_count(repetitions, base_seed, jobs=jobs)
        self.assert_clean(outcomes)
        return outcomes
