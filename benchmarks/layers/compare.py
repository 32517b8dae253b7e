"""``--compare A.json B.json``: did B get worse, per metric and workload.

Host metrics are judged against their bound from the catalogue
(choosing-metrics, sect. 6): ``worse`` / ``better`` when B's median is
off A's by more than the bound, ``unresolved`` when either side's own
quartile spread is wider than the bound (unless every run of B reads
better than every run of A), else ``same``.  Simulated metrics and
``sim_digest`` compare exactly.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, NamedTuple, Optional


class Verdict(NamedTuple):
    workload: str
    metric: str
    verdict: str        # same | worse | better | unresolved | differs
    a: Any
    b: Any
    detail: str


def _spread(row: Dict[str, Any]) -> float:
    return (row["q3"] - row["q1"]) / row["median"] if row["median"] else 0.0


def host_verdict(workload: str, metric: str, a: Dict[str, Any],
                 b: Dict[str, Any]) -> Verdict:
    """Judge one host metric: medians against the bound, spread first."""
    bound = a["bound"]
    sign = 1.0 if a["better"] == "higher" else -1.0
    gain = sign * (b["median"] - a["median"]) / a["median"]
    detail = (f"{gain:+.1%} (bound {bound:.0%}, spread A {_spread(a):.1%} "
              f"B {_spread(b):.1%})")
    if max(_spread(a), _spread(b)) > bound:
        every_b_better = (
            min(b["values"]) > max(a["values"]) if sign > 0
            else max(b["values"]) < min(a["values"]))
        verdict = "better" if every_b_better else "unresolved"
    elif gain < -bound:
        verdict = "worse"
    elif gain > bound:
        verdict = "better"
    else:
        verdict = "same"
    return Verdict(workload, metric, verdict, a["median"], b["median"], detail)


def exact_verdict(workload: str, metric: str, a: Any, b: Any) -> Verdict:
    """Simulated values must be identical, digit for digit."""
    return Verdict(workload, metric, "same" if a == b else "differs", a, b,
                   "exact")


def compare_sets(a: Dict[str, Any], b: Dict[str, Any]) -> List[Verdict]:
    """Every (metric, workload) verdict for two ``--json`` sets."""
    verdicts: List[Verdict] = []
    for name, wa in a["workloads"].items():
        wb: Optional[Dict[str, Any]] = b["workloads"].get(name)
        if wb is None:
            verdicts.append(Verdict(name, "*", "unresolved", "present",
                                    "missing", "workload absent from B"))
            continue
        for metric, row in wa["end_to_end"].items():
            other = wb["end_to_end"][metric]
            if row.get("exact"):
                verdicts.append(exact_verdict(
                    name, metric, row["value"], other["value"]))
            else:
                verdicts.append(host_verdict(name, metric, row, other))
        verdicts.append(exact_verdict(
            name, "sim_digest", wa["sim_digest"], wb["sim_digest"]))
    return verdicts


def compare_files(path_a: str, path_b: str) -> List[Verdict]:
    with open(path_a) as handle_a, open(path_b) as handle_b:
        return compare_sets(json.load(handle_a), json.load(handle_b))


def regressed(verdicts: List[Verdict]) -> bool:
    """True unless every pairing is ``same`` or ``better``."""
    return any(v.verdict not in ("same", "better") for v in verdicts)


def render(verdicts: List[Verdict]) -> str:
    lines = [f"{'workload':<20}{'metric':<22}{'verdict':<12}"
             f"{'A':>14}{'B':>14}  detail"]
    for v in verdicts:
        a = f"{v.a:.6g}" if isinstance(v.a, float) else str(v.a)[:12]
        b = f"{v.b:.6g}" if isinstance(v.b, float) else str(v.b)[:12]
        lines.append(f"{v.workload:<20}{v.metric:<22}{v.verdict:<12}"
                     f"{a:>14}{b:>14}  {v.detail}")
    counts: Dict[str, int] = {}
    for v in verdicts:
        counts[v.verdict] = counts.get(v.verdict, 0) + 1
    lines.append("  ".join(f"{k}: {n}" for k, n in sorted(counts.items())))
    return "\n".join(lines)
