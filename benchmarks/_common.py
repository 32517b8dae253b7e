"""Shared machinery for the experiment benchmarks.

Every benchmark reproduces one experiment from DESIGN.md's per-experiment
index: it runs the scenario, prints the reproduced table, writes it to
``benchmarks/results/``, and asserts the *shape* of the paper's claim
(who wins, roughly by how much).  pytest-benchmark wraps the scenario so
wall-clock cost is tracked too.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.experiment import Sweep, Trial
from repro.core.report import ascii_table, write_csv
from repro.obs.registry import MetricsSnapshot, Registry
from repro.parallel import TrialExecutor

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def rows_to_snapshot(bench: str, rows: Sequence[Dict[str, Any]]) -> MetricsSnapshot:
    """A result table as a :class:`MetricsSnapshot` — the form in which
    ``benchmarks/gates.py`` diffs the taxonomy tables against their
    committed baselines.

    Each numeric column becomes a gauge ``<bench>.<column>``; the row's
    non-numeric cells become its labels (bools count as labels — they
    are verdicts, not measurements).  Rows with no distinguishing label
    get a positional ``row`` label so series keys stay unique.
    """
    registry = Registry()
    for index, row in enumerate(rows):
        labels: Dict[str, Any] = {}
        values: Dict[str, float] = {}
        for column, value in row.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                labels[column] = value
            else:
                values[column] = float(value)
        if not labels:
            labels["row"] = index
        for column, value in values.items():
            registry.set(f"{bench}.{column}", value, **labels)
    return registry.snapshot()


def assert_trial_invariants(trial: Trial) -> None:
    """``on_trial`` observer failing fast on in-run invariant breaches.

    Scenarios that run under checking report an ``invariant_violations``
    metric; this turns a nonzero count into an immediate failure naming
    the exact (parameter, seed) trial to re-run — instead of a silently
    averaged-away column.  Scenarios without the metric pass through.
    """
    count = trial.metrics.get("invariant_violations", 0)
    if count:
        raise AssertionError(
            f"trial {trial.params} seed={trial.seed}: "
            f"{count:.0f} invariant violation(s); rerun with this seed"
        )


def trial_jobs(default: int = 1) -> int:
    """Worker processes for benchmark trials.

    Set ``REPRO_BENCH_JOBS`` (0 = all cores) to fan independent trials
    out over :class:`repro.parallel.TrialExecutor`'s *warm* worker pool
    for that jobs count: workers fork on the first parallel dispatch of
    the benchmark session and every later :func:`run_trials`/
    :func:`run_sweep` call reuses them, so a session of many small
    sweeps pays the spawn cost once, not per call.  Results are merged
    by trial index, so a benchmark's tables are byte-identical for every
    jobs count — the knob only changes wall-clock time.  On a
    single-core host the executor runs the trials serially regardless.
    """
    return int(os.environ.get("REPRO_BENCH_JOBS", default))


def run_trials(fn: Callable[..., Any],
               argses: Sequence[tuple]) -> List[Any]:
    """Run independent trial calls under the shared jobs knob.

    ``fn`` must be a module-level function for the parallel path;
    closures transparently degrade to serial execution.
    """
    return TrialExecutor(trial_jobs()).map(fn, argses)


def run_sweep(parameter: str, values: Sequence[Any],
              scenario: Callable[[Any, int], Dict[str, float]],
              repetitions: int = 3, base_seed: int = 1,
              on_trial: Optional[Callable[[Trial], None]] = None) -> Sweep:
    """A :class:`Sweep` honouring ``REPRO_BENCH_JOBS``.

    ``on_trial`` observes each completed trial in trial order (see
    :meth:`Sweep.run`); with ``REPRO_BENCH_CHECK=1`` set and no explicit
    observer, :func:`assert_trial_invariants` is installed so checking
    scenarios fail on the first violating trial.
    """
    if on_trial is None and os.environ.get("REPRO_BENCH_CHECK") == "1":
        on_trial = assert_trial_invariants
    return Sweep(parameter).run(values, scenario, repetitions=repetitions,
                                base_seed=base_seed, jobs=trial_jobs(),
                                on_trial=on_trial)


def publish(
    name: str,
    title: str,
    rows: Sequence[Dict[str, Any]],
    columns: Optional[Sequence[str]] = None,
) -> str:
    """Print and persist one experiment table."""
    table = ascii_table(rows, title=title, columns=columns)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as handle:
        handle.write(table + "\n")
    write_csv(os.path.join(RESULTS_DIR, f"{name}.csv"), list(rows))
    print("\n" + table)
    return table


def once(benchmark, func):
    """Run the scenario exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, rounds=1, iterations=1)
