"""Alternating parent/change repetitions of one layered workload.

``python3 benchmarks/pairs.py --parent TREE --workload NAME --pairs 10``
(= ``make bench-pairs PARENT=TREE WORKLOAD=NAME PAIRS=10``) judges this
checkout (the change) against a checkout of its parent the way a
claimed gain is judged: pair ``i`` runs one repetition of each side, the
parent first in even pairs and the change first in odd ones, each in a
fresh child through that tree's own ``benchmarks/layers/run.py --rep``
(its ``run_rep``).  Both sides get the same seed and scale (by default
the benchmark's own); nothing under ``benchmarks/layers/`` is written.

It prints, for each end-to-end metric of ``BENCHMARK.json``
(``ops_per_s``, ``setup_s``, ``rss_peak_mb``), each side's median and
quartiles, every pair's change/parent ratio and the change's wins out of
the pairs (ties count for neither side), then whether its gain is
claimable: wins in at least nine tenths of the pairs, and a median gain
larger than the distance between the parent's quartiles.  A metric that
is not claimable is judged against its bound in ``BENCHMARK.json``
(choosing-metrics, sect. 6): ``unresolved`` when the parent's quartile
spread is wider than the bound (unless every run of the change reads
better than every run of the parent), ``worse`` when the change's median
is off the parent's by more than the bound, else ``within``.

Exit 0 when every repetition ran, passed its checks and agreed on
``sim_digest`` and the simulated metrics (the layered benchmark's own
checks, :func:`benchmarks.layers.cli.summarise`, over every repetition
of both sides); 1 otherwise — a behaviour change is not a like-for-like
pair.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from typing import Any, Callable, Dict, List, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from benchmarks.layers.cli import CHILD_TIMEOUT_S, summarise  # noqa: E402
from benchmarks.layers.stats import summary  # noqa: E402
from benchmarks.layers.workloads import WORKLOADS  # noqa: E402

#: Share of pairs the change must win for a claim.
WIN_SHARE = 0.9

Rep = Dict[str, Any]
Spawn = Callable[[str, str, int, Optional[float]], Rep]


def end_to_end() -> List[Dict[str, Any]]:
    """The benchmark's end-to-end metrics (name, unit, better, bound),
    read from this checkout's ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)["end_to_end"]


def spawn_rep(tree: str, workload: str, seed: int,
              scale: Optional[float]) -> Rep:
    """One untraced repetition of ``workload`` on ``tree``, in a fresh
    child; ``scale`` None is the benchmark's default.  As
    :func:`benchmarks.layers.cli.spawn_rep`, but for any tree.

    The child reads and writes bytecode only under an empty
    ``PYTHONPYCACHEPREFIX``, so it compiles every module it imports
    whatever ``__pycache__`` its tree holds: a working tree with caches
    beside a fresh parent checkout would otherwise read as a faster
    set-up in less memory."""
    cmd = [sys.executable, os.path.join(tree, "benchmarks", "layers", "run.py"),
           "--rep", "--workload", workload, "--seed", str(seed), "--trace", "0"]
    if scale is not None:
        cmd += ["--scale", repr(scale)]
    try:
        with tempfile.TemporaryDirectory(prefix="pairs-pycache-") as cache:
            proc = subprocess.run(
                cmd, cwd=tree, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S,
                env=dict(os.environ, PYTHONPYCACHEPREFIX=cache))
    except subprocess.TimeoutExpired:
        return {"error": f"child timed out after {CHILD_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"child exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}"}
    return json.loads(lines[-1])


def run_pairs(parent: str, change: str, workload: str, pairs: int, seed: int,
              scale: Optional[float], spawn: Spawn = spawn_rep,
              log: Callable[[str], None] = print) -> Dict[str, Any]:
    """Run ``pairs`` alternating pairs and return every repetition."""
    runs: List[Dict[str, Rep]] = []
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair: Dict[str, Rep] = {}
        for side in order:
            pair[side] = spawn(parent if side == "parent" else change,
                               workload, seed, scale)
        runs.append(pair)
        log(f"  pair {i + 1}/{pairs} ({order[0]} first): " + "  ".join(
            f"{side} {_ops(pair[side])}" for side in ("parent", "change")))
        if all(rep.get("error") for rep in pair.values()):
            break  # neither side runs: more pairs would only repeat that
    return {"workload": workload, "seed": seed, "scale": scale,
            "parent": parent, "change": change, "pairs": runs}


def _ops(rep: Rep) -> str:
    return "FAILED" if rep.get("error") else f"{rep['ops_per_s']:.1f} ops/s"


def problems(result: Dict[str, Any]) -> List[str]:
    """The failed checks over every repetition of both sides; empty
    when the pairs are like for like."""
    reps = [rep for pair in result["pairs"] for rep in pair.values()]
    checks = summarise(result["workload"], reps)["checks"]
    return [f"{name}: {check['detail']}" for name, check in checks.items()
            if not check["ok"]]


def verdict(result: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """Per metric: both sides' quartiles, pair ratios, the median gain
    (positive is better, whichever way the metric points), wins, the
    claim and, for a metric that is not claimable, how it stands against
    its bound (``standing``: ``claimable``, ``better``, ``unresolved``,
    ``worse`` or ``within``)."""
    pairs = [p for p in result["pairs"]
             if not p["parent"].get("error") and not p["change"].get("error")]
    out: Dict[str, Dict[str, Any]] = {}
    if not pairs:
        return out
    for metric in end_to_end():
        name, better, bound = metric["name"], metric["better"], metric["bound"]
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        sign = 1.0 if better == "higher" else -1.0
        wins = sum(1 for a, b in zip(parent, change) if sign * (b - a) > 0)
        base, new = summary(parent), summary(change)
        gain = sign * (new["median"] - base["median"])
        median = base["median"]
        spread = (base["q3"] - base["q1"]) / median if median else 0.0
        claimable = (wins >= WIN_SHARE * len(pairs)
                     and gain > base["q3"] - base["q1"])
        if claimable:
            standing = "claimable"
        elif min(sign * b for b in change) > max(sign * a for a in parent):
            standing = "better"
        elif spread > bound:
            standing = "unresolved"
        elif median and gain / median < -bound:
            standing = "worse"
        else:
            standing = "within"
        out[name] = {
            "better": better, "bound": bound, "parent": base, "change": new,
            "ratios": [b / a for a, b in zip(parent, change)],
            "gain": gain, "wins": wins, "pairs": len(pairs), "spread": spread,
            "claimable": claimable, "standing": standing,
        }
    return out


#: What a metric that is not claimable reads, by standing.
STANDINGS = {
    "better": "every run of the change better than every run of the parent",
    "unresolved": "unresolved: the parent's quartile spread is "
                  "{spread:.1%} of its median, wider than the {bound:.0%} "
                  "bound",
    "worse": "worse: the median is off the parent's by more than the "
             "{bound:.0%} bound",
    "within": "within the {bound:.0%} bound",
}


def render(result: Dict[str, Any], judged: Dict[str, Dict[str, Any]],
           found: Sequence[str]) -> str:
    scale = result["scale"]
    lines = [f"{result['workload']}  seed {result['seed']}  scale "
             f"{'default' if scale is None else format(scale, '.4g')}  "
             f"{len(result['pairs'])} pairs",
             f"  parent {result['parent']}", f"  change {result['change']}",
             f"  {'metric':<12} {'side':<7} {'median':>11} {'q1':>11} "
             f"{'q3':>11}"]
    for name, row in judged.items():
        for side in ("parent", "change"):
            q = row[side]
            lines.append(f"  {name if side == 'parent' else '':<12} {side:<7} "
                         f"{q['median']:>11.6g} {q['q1']:>11.6g} "
                         f"{q['q3']:>11.6g}")
    for name, row in judged.items():
        ratios = row["ratios"]
        lines.append(
            f"  {name} change/parent per pair: "
            + " ".join(f"x{r:.3f}" for r in ratios)
            + f"  (median x{statistics.median(ratios):.3f}); change better "
              f"in {row['wins']}/{row['pairs']} pairs ({row['better']} is "
              "better)")
    for name, row in judged.items():
        spread = row["parent"]["q3"] - row["parent"]["q1"]
        lines.append(
            f"  {name} gain {row['gain']:+.4g} vs parent quartile spread "
            f"{spread:.4g}, {row['wins']}/{row['pairs']} wins: "
            + ("claimable" if row["claimable"] else "not claimable; "
               + STANDINGS[row["standing"]].format(**row)))
    lines.extend(f"  MISMATCH {problem}" for problem in found)
    if not found:
        lines.append("  every repetition passed its checks; sim_digest and "
                     "simulated metrics equal on both sides")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None,
         spawn: Spawn = spawn_rep) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=2018)
    parser.add_argument("--scale", type=float, default=None,
                        help="timed-section scale (default: the benchmark's)")
    args = parser.parse_args(argv)
    if not args.parent:
        parser.error("--parent must not be empty")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if not os.path.isfile(os.path.join(args.parent, "benchmarks", "layers",
                                       "run.py")):
        parser.error(f"{args.parent} has no benchmarks/layers/run.py")
    result = run_pairs(os.path.abspath(args.parent), ROOT, args.workload,
                       args.pairs, args.seed, args.scale, spawn=spawn)
    found = problems(result)
    print(render(result, verdict(result), found))
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
