"""The one command: run workloads, print the ledger, check, compare.

Every (workload, repetition) runs in its own fresh child process, one
at a time (this box has two cores and the load generator is the single
simulator thread), workloads interleaved round-robin so slow host
phases spread over all of them.  Untraced repetitions give the
end-to-end metrics; ``--trace 1`` adds one traced repetition per
workload for the per-layer ledger and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional

from benchmarks.layers import compare
from benchmarks.layers.host import provenance
from benchmarks.layers.metrics import (
    HOST_END_TO_END, PER_LAYER, SIM_END_TO_END, per_layer_values)
from benchmarks.layers.stats import summary
from benchmarks.layers.trace import LAYERS
from benchmarks.layers.workloads import DEFAULT_SCALE, WORKLOADS

SCHEMA = "repro.bench.layers/1"
RUN_PY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
#: Default ``--repeats``.
DEFAULT_REPS = 3
#: Time-based runs (``--seconds``) set up and measure at least twice, so
#: every run re-checks ``sim_digest``; a third repetition would push the
#: driver's 114 runs past its 3420 s cap whenever the host runs slow.
MIN_REPS = 2
#: No new repetition starts this long into a run: the contract allows
#: 180 s and the slowest repetition (traced campus) takes ~25 s.
RUN_BUDGET_S = 120.0
CHILD_TIMEOUT_S = 170.0

Rep = Dict[str, Any]
Spawn = Callable[..., Rep]


def spawn_rep(workload: str, seed: int, scale: float, traced: bool = False,
              trace_out: Optional[str] = None) -> Rep:
    """Run one repetition in a fresh child and return what it printed."""
    cmd = [sys.executable, RUN_PY, "--rep", "--workload", workload,
           "--seed", str(seed), "--scale", repr(scale),
           "--trace", "1" if traced else "0"]
    if trace_out is not None:
        cmd += ["--trace-out", trace_out]
    failed: Rep = {"workload": workload, "seed": seed, "scale": scale,
                   "traced": traced}
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return dict(failed, error=f"child timed out after {CHILD_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return dict(failed, error=f"child exited {proc.returncode}: "
                                  f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


# ----------------------------------------------------------------------
# one workload's repetitions -> its summary
# ----------------------------------------------------------------------
def summarise(name: str, reps: List[Rep],
              traced: Optional[Rep] = None,
              reference_ops_per_s: Optional[float] = None) -> Dict[str, Any]:
    """Fold the repetitions of one workload into metrics and checks."""
    everything = reps + ([traced] if traced is not None else [])
    good = [r for r in everything if not r.get("error")]
    checks: Dict[str, Dict[str, Any]] = {}
    for rep in everything:
        if rep.get("error"):
            checks["ran_to_completion"] = {
                "ok": False, "detail": rep["error"].strip().splitlines()[-1]}
    for rep in good:
        for check, (ok, detail) in rep["checks"].items():
            if ok and check in checks:
                continue  # keep the first failure's detail
            checks[check] = {"ok": bool(ok), "detail": detail}
    digests = sorted({r["digest"] for r in good})
    checks["sim_digest_equal"] = {
        "ok": len(digests) == 1,
        "detail": (f"{len(good)} runs" + (", traced included" if traced else "")
                   + f": {len(digests)} distinct")}
    sims = {json.dumps(r["sim"], sort_keys=True) for r in good}
    checks["sim_metrics_equal"] = {
        "ok": len(sims) == 1, "detail": f"{len(sims)} distinct"}
    plain = [r for r in reps if not r.get("error")]
    per_layer = ledger_top = None
    if plain and traced is not None and not traced.get("error"):
        # Counts are identical in every repetition; the one with the
        # median timed wall is the steadiest base for the overhead.
        typical = sorted(plain, key=lambda r: r["wall_s"])[len(plain) // 2]
        per_layer = per_layer_values(typical, traced, reference_ops_per_s)
        ledger_top = traced["trace"]["top"]
        error = per_layer["trace.partition_error_pct"]
        checks["trace_partition_closes"] = {
            "ok": error < 1.0, "detail": f"off by {error:.4f} % (< 1 %)"}
    correct = all(c["ok"] for c in checks.values())
    attempted = sum(r["attempted"] for r in plain)
    completed = sum(r["completed"] for r in plain)
    out: Dict[str, Any] = {
        "workload": name,
        "why": WORKLOADS[name].why,
        "reps": len(reps),
        "correct": correct,
        "attempted": attempted,
        "completed": completed,
        # What the *benchmark* failed to do.  A datagram the simulated
        # network loses is a simulated outcome (op_fail_ratio, checked
        # against the workload's ceiling), not a failed simulation; an
        # exception, a failed check or a violation fails every op.
        "failed": 0 if correct else max(attempted, 1),
        "checks": checks,
        "sim_digest": digests[0] if len(digests) == 1 else None,
        "end_to_end": {},
        "context": {},
        "per_layer": per_layer,
        "ledger_top": ledger_top,
    }
    if not plain:
        return out
    for metric in HOST_END_TO_END:
        out["end_to_end"][metric.name] = dict(
            summary([r[metric.name] for r in plain]),
            unit=metric.unit, better=metric.better, bound=metric.bound)
    first = plain[0]
    for metric in SIM_END_TO_END:
        out["end_to_end"][metric.name] = {
            "value": first["sim"][metric.name], "unit": metric.unit,
            "better": metric.better, "exact": True}
    out["context"] = {
        # The seconds as they passed, and the host speed that scaled
        # them into setup_s / ops_per_s (1.0 = the reference host).
        "raw_setup_s": statistics.median(r["raw_setup_s"] for r in plain),
        "raw_ops_per_s": statistics.median(r["raw_ops_per_s"] for r in plain),
        "host_speed": statistics.median(r["host_speed"] for r in plain),
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "sim_s": first["sim_s"],
        "sim_latency_samples": first["sim"]["sim_latency_samples"],
        "counts": first["counts"],
    }
    return out


# ----------------------------------------------------------------------
# running a set
# ----------------------------------------------------------------------
def run_set(names: List[str], seed: int, scale: float,
            repeats: Optional[int], seconds: Optional[float], trace: bool,
            trace_out: Optional[str] = None,
            spawn: Spawn = spawn_rep,
            log: Callable[[str], None] = lambda line: None) -> Dict[str, Any]:
    """Run every (workload, repetition) and return the set's results.

    ``repeats`` fixes the untraced repetition count (default
    ``DEFAULT_REPS``); with ``seconds`` instead, repetitions accumulate
    until that much timed section was measured per workload (at least
    ``MIN_REPS``) — or, with ``trace``, one untraced repetition runs
    beside the traced one: it is there for the exact counts and as the
    overhead's base, and the two timed sections together fill the time.
    """
    started = time.perf_counter()
    if repeats is None and seconds is None:
        repeats = DEFAULT_REPS
    elif repeats is None and trace:
        repeats = 1
    reps: Dict[str, List[Rep]] = {name: [] for name in names}

    def wants_more(name: str) -> bool:
        done = reps[name]
        if repeats is not None:
            return len(done) < repeats
        if any(r.get("error") for r in done):
            return False
        timed = sum(r["wall_s"] for r in done)
        if len(done) >= MIN_REPS and timed >= seconds:
            return False
        return (len(done) < MIN_REPS
                or time.perf_counter() - started < RUN_BUDGET_S)

    while any(wants_more(name) for name in names):
        for name in names:  # round-robin: A B C D E, A B C D E, ...
            if wants_more(name):
                rep = spawn(name, seed, scale)
                reps[name].append(rep)
                log(_rep_line(rep))
    traced: Dict[str, Optional[Rep]] = {name: None for name in names}
    reference: Dict[str, Optional[float]] = {name: None for name in names}
    if trace:
        for name in names:
            traced[name] = spawn(name, seed, scale, traced=True,
                                 trace_out=trace_out)
            log(_rep_line(traced[name]))
            baseline = WORKLOADS[name].slowdown_reference
            if baseline is None:
                continue
            base_reps = reps.get(baseline)
            if not base_reps:
                # Same scenario, observability off, over the same sim span.
                base_reps = [spawn(
                    baseline, seed, scale * WORKLOADS[name].full_duration_s
                    / WORKLOADS[baseline].full_duration_s)]
                log(_rep_line(base_reps[0]))
            rates = [r["ops_per_s"] for r in base_reps if not r.get("error")]
            if rates:
                reference[name] = statistics.median(rates)
    return {
        "schema": SCHEMA,
        "provenance": provenance(
            seed, repeats if repeats is not None else f"{seconds} s", scale),
        "workloads": {
            name: summarise(name, reps[name], traced[name], reference[name])
            for name in names},
    }


def _rep_line(rep: Rep) -> str:
    tag = "traced" if rep.get("traced") else "plain "
    if rep.get("error"):
        return f"  {rep['workload']:<20} {tag} FAILED"
    return (f"  {rep['workload']:<20} {tag} setup {rep['raw_setup_s']:6.2f} s"
            f"  timed {rep['wall_s']:6.2f} s  {rep['raw_ops_per_s']:9.1f} ops/s"
            f"  host x{rep['host_speed']:.2f} -> {rep['ops_per_s']:9.1f} ops/s"
            f"  rss {rep['rss_peak_mb']:6.1f} MB")


# ----------------------------------------------------------------------
# printing
# ----------------------------------------------------------------------
def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "null"
    if value == int(value) and abs(value) < 1e12:
        return str(int(value))
    return f"{value:.4g}" if abs(value) < 1000 else f"{value:.1f}"


def render(results: Dict[str, Any]) -> str:
    """Every metric by name, with unit, median, quartiles and n."""
    prov = results["provenance"]
    lines = ["layered benchmark  " + "  ".join(
        f"{key}={prov[key]}" for key in (
            "git_sha", "python", "numpy", "nproc", "loadavg_1m_at_start",
            "seed", "repeats", "duration_scale"))]
    for name, w in results["workloads"].items():
        lines.append("")
        lines.append(f"== {name}: {'correct' if w['correct'] else 'FAILED'}"
                     f"  ({w['reps']} reps, ops {w['completed']}/"
                     f"{w['attempted']} completed, failed {w['failed']}) ==")
        lines.append(f"   {w['why']}")
        lines.append(f"  {'end to end':<22}{'unit':<7}{'median':>11}"
                     f"{'q1':>11}{'q3':>11}{'n':>4}  bound")
        for metric, row in w["end_to_end"].items():
            if row.get("exact"):
                lines.append(f"  {metric:<22}{row['unit']:<7}"
                             f"{_fmt(row['value']):>11}  (sim, exact)")
            else:
                lines.append(
                    f"  {metric:<22}{row['unit']:<7}{_fmt(row['median']):>11}"
                    f"{_fmt(row['q1']):>11}{_fmt(row['q3']):>11}"
                    f"{row['n']:>4}  {row['bound']}")
        ctx = w["context"]
        if ctx:
            lines.append(f"  as the seconds passed: raw_setup_s "
                         f"{_fmt(ctx['raw_setup_s'])}  raw_ops_per_s "
                         f"{_fmt(ctx['raw_ops_per_s'])}  wall_s "
                         f"{_fmt(ctx['wall_s'])}  host_speed "
                         f"{_fmt(ctx['host_speed'])}")
            lines.append(f"  context: sim_s "
                         f"{_fmt(ctx['sim_s'])}  latency samples "
                         f"{ctx['sim_latency_samples']}  sim_digest "
                         f"{(w['sim_digest'] or 'MISMATCH')[:16]}")
        for check, row in w["checks"].items():
            lines.append(f"  {'ok  ' if row['ok'] else 'FAIL'} {check:<26}"
                         f"{row['detail']}")
        layer = w["per_layer"]
        if layer is None:
            continue
        lines.append("  per layer (traced pass):")
        for row in LAYERS:
            lines.append(
                f"  {row + '.self_s':<20}{layer[row + '.self_s']:>8.3f} s   "
                f"{row + '.self_pct':<22}{layer[row + '.self_pct']:>5.1f} %   "
                f"{row + '.calls':<18}{layer[row + '.calls']:>9}")
        lines.append("  hottest (layer, function, calls, self_s):")
        for entry in w["ledger_top"][:8]:
            lines.append(f"    {entry[0]:<10} {entry[1]:<46}"
                         f"{entry[2]:>9}{entry[3]:>9.3f}")
        units = {m.name: m.unit for m in PER_LAYER}
        for metric, value in layer.items():
            if (metric.rsplit(".", 1)[-1] in ("self_s", "self_pct", "calls")
                    or metric in w["end_to_end"]):
                continue  # printed above
            lines.append(f"  {metric:<34}{units[metric]:<7}{_fmt(value):>12}")
    return "\n".join(lines)


def contract_line(w: Dict[str, Any], trace: bool) -> str:
    """The driver's last line: end-to-end medians, or the layer metrics.

    A metric the workload has no notion of reads 0 here (the contract
    wants a number for every name); the ledger above prints it ``null``.
    """
    if trace:
        units = {m.name: m.unit for m in PER_LAYER}
        values = w["per_layer"] or {}
        metrics = {name: {"value": values.get(name) or 0, "unit": unit}
                   for name, unit in units.items()}
    else:
        metrics = {m.name: {"value": w["end_to_end"][m.name]["median"],
                            "unit": m.unit}
                   for m in HOST_END_TO_END if m.name in w["end_to_end"]}
    return json.dumps({"correct": w["correct"], "attempted": w["attempted"],
                       "failed": w["failed"], "metrics": metrics})


# ----------------------------------------------------------------------
# entry
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.layers", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=2018)
    parser.add_argument("--repeats", type=int, default=None,
                        help="untraced repetitions per workload (default 3)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="instead of --repeats: repeat until this much "
                             "timed section was measured per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add the traced pass (per-layer ledger)")
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE,
                        help="factor on every simulated duration "
                             "(1.0 = the issue's full-size sections)")
    parser.add_argument("--json", metavar="OUT",
                        help="write the set's results here")
    parser.add_argument("--trace-out", metavar="PATH",
                        help="write the traced pass's first 10 000 raw "
                             "spans here as JSONL")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two --json sets and exit")
    parser.add_argument("--rep", action="store_true",
                        help=argparse.SUPPRESS)  # child mode: one repetition
    return parser


def main(argv: Optional[List[str]] = None,
         started_at: Optional[float] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.compare:
        verdicts = compare.compare_files(*args.compare)
        print(compare.render(verdicts))
        return 1 if compare.regressed(verdicts) else 0
    if args.rep:
        from benchmarks.layers.rep import run_rep
        print(json.dumps(run_rep(
            args.workload, args.seed, args.scale, traced=bool(args.trace),
            trace_out=args.trace_out, started_at=started_at)))
        return 0
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = run_set(names, args.seed, args.scale, args.repeats,
                      args.seconds, bool(args.trace), args.trace_out,
                      spawn=spawn_rep,
                      log=lambda line: print(line, flush=True))
    print(render(results))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(results, handle, indent=1)
    correct = all(w["correct"] for w in results["workloads"].values())
    if len(names) == 1:
        print(contract_line(results["workloads"][names[0]], bool(args.trace)))
    else:
        print("all checks passed" if correct else "CHECKS FAILED")
    return 0 if correct else 1
