"""Cold start — what a fresh process pays for one short run.

The paper's claims are reproduced by sweeps of many short runs, so the
imports, the set-up and the peak RSS of one small run are paid once per
child (DESIGN.md, "Cold start").  This prints one line per case, each
the best of five fresh interpreters: seconds from the first import to
the end of the run, modules in ``sys.modules``, peak RSS in MB
(``ru_maxrss``), and whether numpy was loaded.

- *unit disk*: a 3×3 grid on the default link model, built and run for
  60 simulated seconds — the shape of most experiments and every gate;
- *log-distance*: the same grid and run on a ``LogDistanceModel``, the
  lossy model whose vectorised evaluation is the only code under
  ``repro`` that imports numpy.

    make cold-start           # python benchmarks/cold_start.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import Dict

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "src")

#: ``(label, link model expression)``: the run is the same otherwise.
CASES = (
    ("unit disk 3x3, 60 s", "None"),
    ("log-distance 3x3, 60 s", "LogDistanceModel(seed=1)"),
)

_CHILD = """
import resource, sys, time
started = time.perf_counter()
from repro.core.system import IIoTSystem
from repro.deployment.topology import grid_topology
from repro.radio.propagation import LogDistanceModel
system = IIoTSystem.build(grid_topology(3), seed=1, link_model={model})
system.start()
system.run(60.0)
print(json.dumps({{
    "s": time.perf_counter() - started,
    "modules": len(sys.modules),
    "mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    "numpy": "numpy" in sys.modules,
}}))
"""


def measure(model: str, runs: int = 5) -> Dict[str, float]:
    """The fastest of ``runs`` fresh interpreters running one case."""
    code = "import json, sys\nsys.path.insert(0, %r)\n" % _SRC \
        + _CHILD.format(model=model)
    best = None
    for _ in range(runs):
        child = subprocess.run([sys.executable, "-c", code],
                               capture_output=True, text=True, check=True)
        result = json.loads(child.stdout)
        if best is None or result["s"] < best["s"]:
            best = result
    return best


def main() -> int:
    for label, model in CASES:
        best = measure(model)
        print(f"{best['s']:.3f} s  {best['modules']} modules  "
              f"{best['mb']:.1f} MB  numpy {'loaded' if best['numpy'] else 'not loaded'}"
              f"  ({label}, best of 5)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
