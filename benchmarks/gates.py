"""The byte-identity gates: one runner, one table, one diff engine.

What holds simulated behaviour still from PR to PR is five committed
baselines under ``benchmarks/results/`` (DESIGN.md, "Observability":
Gates).  Each row
of :data:`GATES` names one and the function that reproduces it, in this
process, from a fixed seed::

    python benchmarks/gates.py check [NAME...]    # make gates
    python benchmarks/gates.py update [NAME...]   # make gates-update

``check`` runs each producer, compares its payload with the committed
baseline through :func:`repro.obs.diff.diff_snapshots` at exact
equality, and prints per gate ``N series, no differences`` or the delta
table and the command that re-records it; it writes nothing.  ``update``
prints the same table — which series moved, old -> new — and then
writes the baseline.  Exit 0 when every gate holds, 1 when one moved or
failed its own verdict, 2 on an unknown gate or an unreadable baseline.

A behaviour-preserving PR runs ``check``; a PR that means to move a gate
runs ``update`` and quotes the table.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from typing import Any, Callable, Dict, List, Tuple

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(_ROOT, "src"), _ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from benchmarks._common import RESULTS_DIR, rows_to_snapshot
from repro.obs.analysis import EXPLAIN_FORMAT, analyze_run
from repro.obs.diff import diff_snapshots, load_snapshot, render_deltas, snapshot_of

Payload = Dict[str, Any]


class VerdictFailed(Exception):
    """A gate failed a check of its own, before any baseline is read."""


@functools.lru_cache(maxsize=None)
def _demo():
    """The seed-2018 dashboard demo both ``core`` and ``explain`` read:
    run once however many of the two are asked for."""
    from repro.app.report import DEMO
    return DEMO.run(2018)


def core() -> Payload:
    """The demo's metrics (``repro report --export``'s metrics.json).
    Exemplars are annotations the diff never compares; left out, as in
    the committed baseline."""
    snapshot = _demo().obs.registry.snapshot()
    return dataclasses.replace(snapshot, exemplars={}).to_jsonable()


def explain() -> Payload:
    """The demo's p95 latency attribution (``repro explain --export``)."""
    system = _demo()
    payload = analyze_run(system.obs.spans, system.obs.registry.snapshot(),
                          domain_of=getattr(system.topology, "domain_of", None))
    if payload is None:
        raise VerdictFailed("no exemplars recorded for net.latency_s")
    return payload


def taxonomy() -> Payload:
    from benchmarks.bench_taxonomy_report import run_capstone
    return rows_to_snapshot("taxonomy_report", run_capstone()).to_jsonable()


def taxonomy_matrix() -> Payload:
    from benchmarks.bench_taxonomy_matrix import run_matrix
    return rows_to_snapshot("taxonomy_matrix", run_matrix()).to_jsonable()


def dependability() -> Payload:
    from repro.app.dependability import run_gate
    passed, lines, snapshot = run_gate()
    if not passed:
        raise VerdictFailed("\n".join(lines))
    return snapshot.to_jsonable()


#: name -> (baseline file under benchmarks/results/, producer).
GATES: Dict[str, Tuple[str, Callable[[], Payload]]] = {
    "core": ("core_metrics.baseline.json", core),
    "explain": ("explain_core.baseline.json", explain),
    "taxonomy": ("taxonomy_report.baseline.json", taxonomy),
    "taxonomy-matrix": ("taxonomy_matrix.baseline.json", taxonomy_matrix),
    "dependability": ("dependability.baseline.json", dependability),
}


def _dumps(payload: Payload) -> str:
    # The bytes each committed baseline was written with: `repro explain
    # --export` indents by 2, `write_metrics_json` by 1.
    indent = 2 if payload["format"] == EXPLAIN_FORMAT else 1
    return json.dumps(payload, indent=indent, sort_keys=True) + "\n"


def run(verb: str, names: List[str]) -> int:
    moved = []
    for name in names:
        baseline_file, producer = GATES[name]
        path = os.path.join(RESULTS_DIR, baseline_file)
        try:
            payload = producer()
        except VerdictFailed as exc:
            print(f"{name}: FAILED its own verdict\n{exc}")
            moved.append(name)
            continue
        try:
            deltas = diff_snapshots(load_snapshot(path), snapshot_of(payload))
        except (OSError, ValueError) as exc:
            print(f"{name}: cannot read baseline: {exc}")
            return 2
        if any(d.rel > 0.0 for d in deltas):
            print(f"{name}: differs from {os.path.relpath(path)}")
            print(render_deltas(deltas))
            if verb == "check":
                moved.append(name)
                print(f"  re-record: python benchmarks/gates.py update {name}")
        else:
            print(f"{name}: {len(deltas)} series, no differences")
        if verb == "update":
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(_dumps(payload))
            print(f"  wrote {os.path.relpath(path)} — review and commit it")
    if moved:
        print(f"FAILED: {', '.join(moved)}")
    return 1 if moved else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/gates.py",
        description="Check or re-record the byte-identity gates.")
    parser.add_argument("verb", choices=["check", "update"])
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help=f"gates to run (default: all of "
                             f"{', '.join(GATES)})")
    args = parser.parse_args(argv)
    unknown = [name for name in args.names if name not in GATES]
    if unknown:
        print(f"unknown gate(s) {', '.join(unknown)}; "
              f"the gates are {', '.join(GATES)}")
        return 2
    return run(args.verb, args.names or list(GATES))


if __name__ == "__main__":
    sys.exit(main())
