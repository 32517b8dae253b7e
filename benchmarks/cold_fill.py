"""Cold-fill census — what a sender's first frame makes the medium do.

``campus_medium``'s set-up (``benchmarks/layers``) is the cold
neighbourhood fill: 1 000 senders on a 10 000-radio campus each build
their audible set once.  This prints, for that same seeded pass, the
funnel a neighbourhood goes through (DESIGN.md, "Scaling the medium") —

- *candidates*: radios in the sender's nine grid cells;
- *in reach*: radios inside its audible disc (the model's range bound at
  its power, times the cell margin), counted over **all** radios;
- *evaluated*: shadowing draws the link model makes for it;
- *audible*: radios that end up in the neighbourhood

— and ``radio.cold_frame_us`` as the layered benchmark defines it, so
ROADMAP item 1(c) starts from a committed count rather than a profile.
``evaluated == in reach`` is the medium's promise (pinned at small size
by ``tests/radio/test_spatial_index.py``); what is left to save is the
cost of one draw, not the number of them.

    make cold-fill            # python benchmarks/cold_fill.py --seed 2018
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List, Sequence

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from benchmarks.layers.workloads import CampusMedium
from repro.radio.medium import Medium, Radio

COLUMNS = ("candidates", "in_reach", "evaluated", "audible")


def census(medium: Medium, senders: Sequence[Radio]) -> List[Dict[str, int]]:
    """One row of :data:`COLUMNS` per sender, from a fresh neighbourhood
    build each (nothing cached is read or replaced).  Needs the grid
    index on and a model that draws through ``_link_shadowing_db``."""
    model = medium.model
    positions = np.array([radio.position for radio in medium.radios.values()])
    draws = 0
    draw = model._link_shadowing_db

    def counted(a, b):
        nonlocal draws
        draws += 1
        return draw(a, b)

    rows = []
    model._link_shadowing_db = counted  # shadows the method on this instance
    try:
        for sender in senders:
            before = draws
            entry = medium._build_neighborhood(sender)
            reach = medium._reach_m(sender.tx_power_dbm)
            dx = positions[:, 0] - sender.position[0]
            dy = positions[:, 1] - sender.position[1]
            rows.append({
                "candidates": sum(len(medium._grid.get(cell, ()))
                                  for cell in entry.cells) - 1,
                "in_reach": int(np.count_nonzero(
                    dx * dx + dy * dy <= reach * reach)) - 1,
                "evaluated": draws - before,
                "audible": len(entry.receivers),
            })
    finally:
        del model._link_shadowing_db
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
