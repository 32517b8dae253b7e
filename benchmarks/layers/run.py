"""Entry point: ``python3 benchmarks/layers/run.py`` from the repo root.

Puts the checkout's ``src/`` (the ``repro`` package under test) and its
root (this package) on ``sys.path``, then hands over to
:mod:`benchmarks.layers.cli`.  ``python -m benchmarks.layers`` lands in
the same :func:`main`.
"""

import os
import sys
import time


def main() -> int:
    started_at = time.perf_counter()  # a child's set-up clock starts here
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    src = os.path.join(root, "src")
    for path in (src, root):
        if path not in sys.path:
            sys.path.insert(0, path)
    import repro
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        # Measuring some other installed copy would be worse than failing.
        sys.exit(f"repro imported from {repro.__file__}, not from {src}")
    from benchmarks.layers.cli import main as cli_main
    return cli_main(started_at=started_at)


if __name__ == "__main__":
    sys.exit(main())
