"""The deterministic seed-sweep harness, and replay.

A *scenario* is a :class:`~repro.core.scenario.Scenario`:
``scenario.run(seed)`` builds, forms and runs a system with
``invariant_checking=True`` (its checkers become the run's
:class:`~repro.checking.base.CheckerSuite`).  The
:class:`SeedSweepRunner` executes the scenario across many seeds and
asserts zero invariant violations.  Every run is a pure function of its
scenario and seed, so a failure reduces to a minimal
:class:`ReproBundle` — the seed, the scenario as JSON and the violation
records — and nothing of the run is recorded in advance: :func:`replay`
runs it again with full observation and a whole-stream trace
subscriber, which observe without perturbing, and shows the trace
records, span trees and latency waterfall around the first violation
(``python -m repro replay --scenario NAME --seed S`` for a built-in,
:func:`replay` for any bundle).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Any, Deque, Dict, List, Optional, Sequence

from repro.app.scenarios import BUILTIN_SCENARIOS
from repro.checking.base import CheckerSuite, Violation
from repro.core.experiment import seeds_for
from repro.core.scenario import Scenario, content_hash
from repro.obs.analysis import analyze_run, render_explain
from repro.parallel import TrialExecutor
from repro.sim.trace import TraceRecord

#: Simulated seconds of trace a replay shows up to the first violation.
WINDOW_S = 120.0


class InvariantViolationError(AssertionError):
    """A seed sweep found invariant violations; carries the bundle."""

    def __init__(self, bundle: "ReproBundle") -> None:
        super().__init__(bundle.summary())
        self.bundle = bundle


@dataclass
class ReproBundle:
    """The minimal artifact needed to reproduce one failing run."""

    name: str
    seed: int
    violations: List[Violation]
    #: The run's description (``Scenario.to_jsonable()``), whose
    #: ``faults`` are the injection script.
    scenario: Optional[Dict[str, Any]] = None

    def summary(self, max_violations: int = 10) -> str:
        """Human-readable repro recipe; the last line replays it."""
        lines = [
            f"scenario={self.name!r} seed={self.seed}: "
            f"{len(self.violations)} violation(s)",
        ]
        for violation in self.violations[:max_violations]:
            lines.append(f"  {violation}")
        if len(self.violations) > max_violations:
            lines.append(f"  ... {len(self.violations) - max_violations} more")
        if self.scenario is not None:
            clauses = self.scenario["faults"]["clauses"]
            lines.append(f"  scenario sha256={content_hash(self.scenario)}")
            lines.append(f"  fault plan ({len(clauses)} clause(s)):")
            for clause in clauses:
                detail = ", ".join(f"{k}={v}" for k, v in sorted(clause.items())
                                   if k not in ("kind", "at_s"))
                lines.append(f"    {clause['kind']} @ t={clause['at_s']:g}s"
                             f"  {detail}")
        builtin = BUILTIN_SCENARIOS.get(self.name)
        if builtin is not None and builtin.to_jsonable() == self.scenario:
            lines.append(f"  repro: python -m repro replay "
                         f"--scenario {self.name} --seed {self.seed}")
        else:
            lines.append("  repro: repro.app.sweep.replay(bundle)")
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
        The :class:`~repro.core.scenario.Scenario` to run.
    """

    def __init__(self, name: str, scenario) -> None:
        self.name = name
        self.scenario = scenario

    # ------------------------------------------------------------------
    def run_seed(self, seed: int) -> SweepOutcome:
        """One deterministic run; violations become a repro bundle."""
        suite = self.scenario.run(seed).checkers
        violations = suite.finish()
        suite.detach()
        bundle = None
        if violations:
            bundle = ReproBundle(self.name, seed, violations,
                                 scenario=self.scenario.to_jsonable())
        return SweepOutcome(seed=seed, violations=violations, bundle=bundle)

    def run(self, seeds: Sequence[int], jobs: int = 1) -> List[SweepOutcome]:
        """Run every seed; ``jobs`` > 1 fans the runs out over a process
        pool (outcomes — including repro bundles — are merged by seed
        index, so the list is identical to a serial run's).

        A scenario that cannot be pickled falls back to serial
        execution transparently.
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


# ----------------------------------------------------------------------
# replay
# ----------------------------------------------------------------------
class _Window:
    """A stream subscriber keeping the records of the last
    :data:`WINDOW_S` simulated seconds, until ``suite`` records its
    first violation: from then on it keeps only the records up to that
    violation's time, and drops nothing.  Memory is bounded by the
    window, not by the run's length."""

    def __init__(self, suite: CheckerSuite) -> None:
        self.suite = suite
        self.records: Deque[TraceRecord] = deque()
        #: The first violation's time, once there is one.
        self.end: Optional[float] = None
        self._now = float("-inf")

    def __call__(self, record: TraceRecord) -> None:
        time, records = record.time, self.records
        if self.end is None and time > self._now:
            self._now = time
            if not self.suite.clean:
                self.end = self.suite.violations[0].time
            else:
                while records and records[0].time < time - WINDOW_S:
                    records.popleft()
        if self.end is None or time <= self.end:
            records.append(record)


@dataclass
class Replay:
    """A re-run's violations and what led to the first one."""

    name: str
    seed: int
    violations: List[Violation]
    #: Every trace record from :data:`WINDOW_S` before the first
    #: violation through it, in emission order (empty when clean).
    records: List[TraceRecord]
    #: Rendered span trees of the traces overlapping those seconds.
    trees: List[str]
    #: The run's ``repro explain`` waterfall; None without exemplars.
    explain: Optional[str]

    def render(self) -> str:
        """What ``python -m repro replay`` prints."""
        lines = [f"scenario={self.name!r} seed={self.seed}: "
                 f"{len(self.violations)} violation(s)"]
        lines.extend(f"  {violation}" for violation in self.violations)
        if self.violations:
            t0 = self.violations[0].time
            lines.append(f"trace t={t0 - WINDOW_S:.3f}..{t0:.3f}s "
                         f"({len(self.records)} record(s)):")
            lines.extend(f"  t={r.time:.3f} {r.category} node={r.node} {r.data}"
                         for r in self.records)
            lines.append(f"span trees overlapping the window "
                         f"({len(self.trees)} trace(s)):")
            for tree in self.trees:
                lines.extend(f"  {line}" for line in tree.splitlines())
        if self.explain is not None:
            lines.append(self.explain)
        return "\n".join(lines)


def replay(bundle: ReproBundle) -> Replay:
    """Run the bundle's scenario, decoded from its JSON, at its seed
    again, fully observed, and collect what a failing run needs to be
    read: the violations, the trace records of the :data:`WINDOW_S`
    seconds through the first one, the span trees overlapping them and
    the run's latency waterfall.  The bundle's own violations are not
    read.

    Observation is transparent (checkers, spans, metrics and stream
    subscribers neither draw RNG nor schedule events), so this run *is*
    the run the sweep made.
    """
    scenario = Scenario.from_jsonable(bundle.scenario)
    observed = replace(scenario, config=replace(scenario.config,
                                                observability=True))
    window: Optional[_Window] = None

    def watch(system) -> None:
        nonlocal window
        window = _Window(system.checkers)
        system.trace.subscribe_stream(window)

    system = observed.run(bundle.seed, observe=watch)
    violations = system.checkers.finish()
    records: List[TraceRecord] = []
    trees: List[str] = []
    spans = system.obs.spans
    if violations:
        t0 = violations[0].time
        records = [r for r in window.records
                   if t0 - WINDOW_S <= r.time <= t0]
        trees = [spans.render(trace_id) for trace_id
                 in spans.traces_overlapping(t0 - WINDOW_S, t0)]
    payload = analyze_run(spans, system.obs.registry.snapshot(),
                          domain_of=getattr(system.topology, "domain_of", None))
    return Replay(bundle.name, bundle.seed, violations, records, trees,
                  None if payload is None else render_explain(payload))
