"""``python -m repro tail`` — follow a run's telemetry stream.

Reads the ``repro.window/2`` JSONL stream written by ``report --live``
(or any :class:`~repro.obs.timeseries.TelemetryEngine` with a sink),
decodes each line with :meth:`TelemetryWindow.from_jsonable` and renders
one line per closed window; a malformed window exits 2.  With
``--follow`` it keeps polling the file for new windows — the operator's
view of a sweep in flight; the poll uses wall-clock by necessity, which
is fine because tailing only *reads* a finished byte stream and can
never perturb the run.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import IO, Optional

from repro.obs.timeseries import TelemetryWindow


def render_window_line(window: TelemetryWindow, top: int = 3) -> str:
    """One human line per window: time range, activity, top movers."""
    counters = window.counters
    ranked = sorted(counters.items(),
                    key=lambda item: (-item[1], repr(item[0])))[:top]

    def series(name: str, labels) -> str:
        label_str = ",".join(f"{k}={v}" for k, v in labels)
        return f"{name}{{{label_str}}}" if label_str else name

    movers = "  ".join(f"{series(*key)}={value:g}" for key, value in ranked)
    return (f"window {window.index:>4}  "
            f"t={window.start:.1f}..{window.end:.1f}s  "
            f"series={len(counters)}c/{len(window.gauges)}g/"
            f"{len(window.histograms)}h"
            f"{'  ' + movers if movers else ''}")


def _emit(line: str, raw: bool, out: IO[str]) -> None:
    payload = json.loads(line)
    if not isinstance(payload, dict) or \
            payload.get("format") != TelemetryWindow.FORMAT:
        return
    window = TelemetryWindow.from_jsonable(payload)
    out.write((line.strip() if raw else render_window_line(window)) + "\n")
    out.flush()


def tail_main(argv, out: Optional[IO[str]] = None,
              sleep=time.sleep) -> int:
    """``python -m repro tail`` entry point.

    ``out``/``sleep`` are injectable for tests; production callers use
    stdout and real sleeping.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro tail",
        description="Render a run's telemetry window stream "
                    "(the JSONL written by `repro report --live PATH`).",
    )
    parser.add_argument("path", help="telemetry JSONL file to read")
    parser.add_argument("-f", "--follow", action="store_true",
                        help="keep polling for new windows (Ctrl-C to stop)")
    parser.add_argument("--interval", type=float, default=0.5, metavar="S",
                        help="poll interval in wall seconds with --follow "
                             "(default: 0.5)")
    parser.add_argument("--limit", type=int, default=None, metavar="N",
                        help="stop after N windows (useful with --follow)")
    parser.add_argument("--raw", action="store_true",
                        help="print the raw JSONL lines instead of the "
                             "rendered summary")
    args = parser.parse_args(argv)
    if args.interval <= 0:
        parser.error("--interval must be positive")
    if args.limit is not None and args.limit < 1:
        parser.error("--limit must be >= 1")

    out = sys.stdout if out is None else out
    shown = 0
    try:
        with open(args.path, "r") as handle:
            while True:
                line = handle.readline()
                if line.endswith("\n"):
                    if line.strip():
                        _emit(line, args.raw, out)
                        shown += 1
                        if args.limit is not None and shown >= args.limit:
                            return 0
                    continue
                # At EOF (or a partially written last line): stop, or
                # poll for more when following.
                if not args.follow:
                    return 0
                sleep(args.interval)
                # rewind over any partial line so it is re-read whole
                if line:
                    handle.seek(handle.tell() - len(line))
    except KeyboardInterrupt:
        return 0
    except FileNotFoundError:
        print(f"tail: no such file: {args.path}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"tail: {args.path}: malformed window: {exc}", file=sys.stderr)
        return 2
