"""Cold-fill census — what a sender's first frame makes the medium do.

``campus_medium``'s set-up (``benchmarks/layers``) is the cold
neighbourhood fill: 1 000 senders on a 10 000-radio campus each build
their audible set once.  This prints, for that same seeded pass, the
funnel a neighbourhood goes through (DESIGN.md, "Scaling the medium") —

- *candidates*: radios in the sender's nine grid cells;
- *in reach*: radios inside its audible disc (the model's range bound at
  its power, times the cell margin), counted over **all** radios;
- *evaluated*: links the medium asks the model about (the positions it
  hands ``model.rssi_dbm``);
- *audible*: radios that end up in the neighbourhood (its ``rssi_by_id``)

— ``radio.cold_frame_us`` as the layered benchmark defines it, and where
a build's time goes, stage by stage, so the next cold-fill change starts
from a committed split rather than a profile.  ``evaluated == in reach``
is the medium's promise (pinned at small size by
``tests/radio/test_spatial_index.py``).

    make cold-fill            # python benchmarks/cold_fill.py --seed 2018
"""

from __future__ import annotations

import argparse
import os
import sys
from time import perf_counter
from typing import Dict, List, Sequence

import numpy as np

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(_ROOT, "src"), _ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from benchmarks.layers.workloads import CampusMedium
from repro.radio.medium import Medium, Radio

COLUMNS = ("candidates", "in_reach", "evaluated", "audible")
#: Wall-clock stages of one ``Medium._build_neighborhood``, cut at the
#: calls it makes: cell gather | ``_reach_m`` + the disc cut (which drops
#: the sender) + the position list | ``model.rssi_dbm`` | threshold,
#: sort, the map and the radio column | ``model.reception_probability``
#: | the PRR column and the entry.
STAGES = ("gather_s", "disc_s", "model_s", "sort_s", "assemble_s")


def census(medium: Medium, senders: Sequence[Radio]) -> List[Dict[str, float]]:
    """One row of :data:`COLUMNS` and :data:`STAGES` per sender, from a
    fresh neighbourhood build each (nothing cached is read or replaced)."""
    model = medium.model
    positions = np.array([radio.position for radio in medium.radios.values()])
    asked = 0
    marks: List[float] = []

    def stamped(call, count=None):
        def wrapper(*args):
            nonlocal asked
            marks.append(perf_counter())
            result = call(*args)
            if count is not None:
                asked += count(args)
            marks.append(perf_counter())
            return result
        return wrapper

    rows = []
    # Instance attributes shadow the methods for the length of the census.
    medium._reach_m = stamped(medium._reach_m)
    model.rssi_dbm = stamped(model.rssi_dbm, lambda args: len(args[1]))
    model.reception_probability = stamped(model.reception_probability)
    try:
        for sender in senders:
            reach = medium._reach_m(sender.tx_power_dbm)
            before = asked
            del marks[:]
            start = perf_counter()
            entry = medium._build_neighborhood(sender)
            end = perf_counter()
            dx = positions[:, 0] - sender.position[0]
            dy = positions[:, 1] - sender.position[1]
            hx, hy = medium._cell_of(sender.position)
            rows.append({
                "candidates": sum(len(medium._grid.get((hx + i, hy + j), ()))
                                  for i in (-1, 0, 1) for j in (-1, 0, 1)) - 1,
                "in_reach": int(np.count_nonzero(
                    dx * dx + dy * dy <= reach * reach)) - 1,
                "evaluated": asked - before,
                "audible": len(entry.rssi_by_id),
                # marks: reach, rssi, prr — each in, out
                "gather_s": marks[0] - start,
                "disc_s": marks[2] - marks[0],
                "model_s": marks[3] - marks[2] + marks[5] - marks[4],
                "sort_s": marks[4] - marks[3],
                "assemble_s": end - marks[5],
            })
    finally:
        del medium._reach_m, model.rssi_dbm, model.reception_probability
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=2018)
    args = parser.parse_args()

    workload = CampusMedium(args.seed)
    workload.setup(lambda: None)  # the benchmark's own cold pass, untouched
    medium = workload.medium
    senders = [medium.radios[node_id] for node_id in medium._neighborhoods]
    rows = census(medium, senders)

    info = medium.grid_info()
    print(f"campus_topology({workload.buildings}, "
          f"{workload.NODES_PER_BUILDING}) seed {args.seed}: "
          f"{info['radios']} radios, {len(senders)} senders, "
          f"{info['cells']} cells of {info['cell_size_m']:.1f} m")
    print(f"  {'':12s}{'total':>10s}{'per sender':>12s}{'max':>8s}")
    for column in COLUMNS:
        values = [row[column] for row in rows]
        print(f"  {column:12s}{sum(values):10d}"
              f"{sum(values) / len(values):12.1f}{max(values):8d}")
    cold_us = workload.cold_s / max(1, workload.cold_frames) * 1e6
    print(f"  radio.cold_frame_us {cold_us:.0f}  "
          f"(cold pass {workload.cold_s:.2f} s over "
          f"{workload.cold_frames} first frames)")
    print(f"  of which one neighbourhood build, re-run over {len(rows)} "
          f"senders (us per sender):")
    for stage in STAGES:
        print(f"    {stage[:-2]:10s}"
              f"{sum(row[stage] for row in rows) / len(rows) * 1e6:8.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
