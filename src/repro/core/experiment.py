"""Seeded parameter sweeps.

Every benchmark is a sweep: for each parameter value, run the scenario
under several seeds and reduce the per-trial metrics to means.  Seeds
are derived deterministically so re-running a benchmark reproduces its
table exactly — including under ``jobs > 1``, where trials execute on a
process pool but are merged back strictly by trial index (see
:mod:`repro.parallel`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.parallel import TrialExecutor


def seeds_for(base: int, repetitions: int) -> List[int]:
    """Deterministic seed list for one sweep point."""
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    return [base * 10_007 + i * 7919 + 1 for i in range(repetitions)]


@dataclass
class Trial:
    """One scenario run: its parameters, seed, and measured metrics."""

    params: Dict[str, Any]
    seed: int
    metrics: Dict[str, float]


@dataclass
class Sweep:
    """A one-dimensional parameter sweep with repetitions.

    ``scenario(value, seed)`` runs one trial and returns a metric dict;
    :meth:`run` accumulates trials, :meth:`rows` averages them per
    sweep value in insertion order.
    """

    parameter: str
    trials: List[Trial] = field(default_factory=list)

    def run(
        self,
        values: Sequence[Any],
        scenario: Callable[[Any, int], Dict[str, float]],
        repetitions: int = 3,
        base_seed: int = 1,
        jobs: int = 1,
    ) -> "Sweep":
        """Execute the sweep deterministically, optionally in parallel.

        ``jobs`` > 1 runs trials on a process pool
        (:class:`~repro.parallel.TrialExecutor`); results are merged by
        trial index, never by arrival order, so the trial list — and
        therefore :meth:`rows` — is byte-identical to a serial run.
        Scenarios that cannot be pickled (closures, lambdas) silently
        fall back to serial execution.
        """
        tasks: List[Tuple[Any, int]] = [
            (value, seed)
            for index, value in enumerate(values)
            for seed in seeds_for(base_seed + index, repetitions)
        ]
        executor = TrialExecutor(jobs)
        for (value, seed), metrics in zip(tasks, executor.map(scenario, tasks)):
            self.trials.append(Trial(params={self.parameter: value},
                                     seed=seed, metrics=metrics))
        return self

    def rows(self) -> List[Dict[str, Any]]:
        """Per-value mean of every metric, in sweep order.

        Every row carries the same metric columns, in first-appearance
        order over the trial list (deterministic for any ``jobs`` count,
        because trials are index-ordered).  A metric missing from *all*
        trials of a value renders as ``float("nan")``; a metric present
        in only some of them averages over the trials that reported it.
        """
        ordered: List[Any] = []
        grouped: Dict[Any, List[Trial]] = {}
        metric_names: List[str] = []
        for trial in self.trials:
            value = trial.params[self.parameter]
            if value not in grouped:
                grouped[value] = []
                ordered.append(value)
            grouped[value].append(trial)
            for name in trial.metrics:
                if name not in metric_names:
                    metric_names.append(name)
        rows = []
        for value in ordered:
            trials = grouped[value]
            row: Dict[str, Any] = {self.parameter: value}
            for name in metric_names:
                samples = [
                    t.metrics[name] for t in trials if name in t.metrics
                ]
                row[name] = sum(samples) / len(samples) if samples else math.nan
            rows.append(row)
        return rows
