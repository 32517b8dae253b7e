"""The invariant-checker contract and the suite that manages checkers.

An :class:`InvariantChecker` watches a running simulation and records
:class:`Violation` structures when a cross-layer property breaks.  Two
observation styles are supported, and most checkers combine them:

- **event-driven** — :meth:`InvariantChecker.subscribe` attaches a
  callback to a :class:`~repro.sim.trace.TraceLog` category;
- **sampled** — :meth:`InvariantChecker.sample_every` runs a probe on a
  fixed schedule against live component state.

Checkers must be *transparent*: they never mutate the system under
observation, never draw from the simulator's RNG (sampling periods are
fixed, not jittered), and never emit trace records.  Under those rules a
run with checkers attached produces byte-identical traces to the same
seed without them, so enabling checking cannot change what is being
checked — the property the determinism regression tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.sim.kernel import Simulator
from repro.sim.timers import PeriodicTimer
from repro.sim.trace import TraceLog, TraceRecord


@dataclass(frozen=True)
class Violation:
    """One observed invariant breach.

    Attributes
    ----------
    time:
        Simulated time the breach was observed.
    checker:
        Name of the checker that recorded it.
    invariant:
        Short identifier of the broken property, e.g. ``"dodag_cycle"``.
    node:
        Offending node id, or None for system-wide properties.
    detail:
        State snapshot captured at detection time (free-form, but small
        enough to print in a repro bundle).
    """

    time: float
    checker: str
    invariant: str
    node: Optional[int] = None
    detail: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        where = f" node={self.node}" if self.node is not None else ""
        extras = " ".join(f"{k}={v!r}" for k, v in sorted(self.detail.items()))
        return (f"[t={self.time:.3f}] {self.checker}/{self.invariant}"
                f"{where} {extras}".rstrip())


class FaultWindowMixin:
    """Declared fault windows: periods where breaches are *expected*.

    Fault-aware checkers (comfort envelope, service availability) mix
    this in so a scenario — or an installed fault schedule via
    :meth:`~repro.faults.plan.FaultPlanRuntime.declare_windows` — can
    tell them when something is deliberately broken.  Excursions inside a
    declared window are fault consequences; the same excursion outside
    one is a genuine violation.

    State is created lazily so the mixin composes with any
    ``__init__`` ordering.
    """

    def _windows(self) -> List[tuple]:
        return self.__dict__.setdefault("_fault_windows", [])

    def declare_fault_window(self, start_s: float, end_s: float,
                             grace_s: float = 0.0) -> None:
        """Declare [start, end + grace] as a period where breaches are
        expected; ``grace_s`` covers recovery after the fault clears
        (rooms re-heat slower than networks re-join)."""
        if end_s < start_s:
            raise ValueError("fault window must not end before it starts")
        self._windows().append((start_s, end_s + grace_s))

    def in_fault_window(self, time_s: float) -> bool:
        return any(start <= time_s <= end for start, end in self._windows())

    @property
    def fault_windows(self) -> List[tuple]:
        """The declared (start, end-including-grace) windows."""
        return list(self._windows())


class InvariantChecker:
    """Base class for runtime invariant checkers.

    Subclasses set :attr:`name`, override :meth:`_setup` to register
    subscriptions and samplers, and optionally override :meth:`finish`
    for end-of-run properties (convergence, counter reconciliation).
    They report breaches through :meth:`record`.
    """

    #: Dotted checker name, used in violation records.
    name = "checker"

    def __init__(self) -> None:
        self.violations: List[Violation] = []
        self.sim: Optional[Simulator] = None
        self.trace: Optional[TraceLog] = None
        self._unsubscribes: List[Callable[[], None]] = []
        self._samplers: List[PeriodicTimer] = []
        self._attached = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def attach(self, sim: Simulator, trace: TraceLog) -> "InvariantChecker":
        """Bind to a running simulation and begin observing."""
        if self._attached:
            raise RuntimeError(f"checker {self.name} already attached")
        self.sim = sim
        self.trace = trace
        self._attached = True
        self._setup()
        return self

    def detach(self) -> None:
        """Stop observing: drop subscriptions and cancel samplers.

        Recorded violations are kept; the checker can be inspected after
        detach but not re-attached.
        """
        for unsubscribe in self._unsubscribes:
            unsubscribe()
        self._unsubscribes.clear()
        for sampler in self._samplers:
            sampler.stop()
        self._samplers.clear()

    def _setup(self) -> None:
        """Subclass hook: register subscriptions and samplers."""

    def finish(self) -> None:
        """Subclass hook: end-of-run checks (called once by the suite)."""

    # ------------------------------------------------------------------
    # observation primitives
    # ------------------------------------------------------------------
    def subscribe(self, category: str,
                  callback: Callable[[TraceRecord], None]) -> None:
        """Watch a trace category; automatically dropped on detach."""
        assert self.trace is not None, "attach() first"
        self._unsubscribes.append(self.trace.subscribe(category, callback))

    def sample_every(self, period_s: float, probe: Callable[[], None]) -> None:
        """Run ``probe`` every ``period_s`` simulated seconds, first at
        ``period_s`` (an explicit phase draws no RNG: determinism)."""
        assert self.sim is not None, "attach() first"
        sampler = PeriodicTimer(self.sim, period_s, probe, phase=period_s)
        sampler.start()
        self._samplers.append(sampler)

    def record(self, invariant: str, node: Optional[int] = None,
               **detail: Any) -> Violation:
        """Record one violation (never raises: the run continues so the
        sweep harness can collect every breach, not just the first)."""
        assert self.sim is not None, "attach() first"
        violation = Violation(
            time=self.sim.now, checker=self.name, invariant=invariant,
            node=node, detail=detail,
        )
        self.violations.append(violation)
        return violation

    @property
    def clean(self) -> bool:
        return not self.violations


class CheckerSuite:
    """A set of checkers attached to one simulation run."""

    def __init__(self, sim: Simulator, trace: TraceLog) -> None:
        self.sim = sim
        self.trace = trace
        self.checkers: List[InvariantChecker] = []
        self._finished = False

    def add(self, checker: InvariantChecker) -> InvariantChecker:
        """Attach ``checker`` to this run and manage its lifecycle."""
        checker.attach(self.sim, self.trace)
        self.checkers.append(checker)
        return checker

    def finish(self) -> List[Violation]:
        """Run end-of-run checks once and return all violations."""
        if not self._finished:
            self._finished = True
            for checker in self.checkers:
                checker.finish()
        return self.violations

    def detach(self) -> None:
        for checker in self.checkers:
            checker.detach()

    @property
    def violations(self) -> List[Violation]:
        """All recorded violations, ordered by simulated time."""
        collected: List[Violation] = []
        for checker in self.checkers:
            collected.extend(checker.violations)
        collected.sort(key=lambda v: v.time)
        return collected

    @property
    def clean(self) -> bool:
        return all(checker.clean for checker in self.checkers)

    def assert_clean(self) -> None:
        """Raise ``AssertionError`` listing every violation, if any."""
        violations = self.violations
        if violations:
            listing = "\n".join(str(v) for v in violations)
            raise AssertionError(
                f"{len(violations)} invariant violation(s):\n{listing}"
            )
