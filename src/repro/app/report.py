"""``python -m repro report`` — the observability CLI dashboard.

Runs :data:`DEMO` — a small instrumented deployment: DODAG convergence,
then CoAP request traffic from the border router to every leaf, one
in-network aggregation query, and a gossiped CRDT counter, with the
full observability stack attached (metrics registry, span tracing,
node-health sampling) — and renders what it saw: delivery counters,
latency percentiles, duty cycles, control-plane activity, a per-node
health table, trace hot categories, and reconstructed lifecycle trees
for a data-plane packet, a control-plane event, and a middleware
round.  ``--export DIR``
additionally writes the JSONL/CSV/JSON artifacts for offline analysis
(``metrics.json`` feeds ``python -m repro diff``).

``python -m repro explain`` (:func:`explain_main`) runs the same demo
and attributes a percentile of its latency to layers
(:mod:`repro.obs.analysis`).  Both sit in the application tier: they
build a :mod:`repro.core` system, which :mod:`repro.obs` must not
import.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from repro.core.scenario import Scenario
from repro.core.system import SystemConfig
from repro.core.workloads import Demo, DemoRun
from repro.deployment.topology import grid_topology
from repro.devices.phenomena import DiurnalField
from repro.devices.sensors import SensorFault
from repro.faults.plan import FaultPlan
from repro.net.mac.analysis import mac_summary_lines
from repro.obs.analysis import analyze_run, render_explain, render_trace
from repro.obs.export import export_run
from repro.obs.health import health_rows
from repro.obs.registry import percentile

#: The dashboard's run: a 3x3 grid, converged for 180 s, then 120 s of
#: demo traffic.  At seed 2018 it is what the ``core`` and ``explain``
#: gates pin; ``report`` and ``explain`` vary it with ``replace``.
DEMO = Scenario(
    topology=grid_topology(3),
    config=SystemConfig(observability=True),
    sensors=(("temp", DiurnalField(mean=21.0)),),
    workloads=(Demo(),),
    formation_s=180.0,
    run_s=120.0,
)


def demo_faults(scenario: Scenario) -> Tuple:
    """One of every scripted fault kind, scaled into the demo's traffic
    window (``--faults``)."""
    now, traffic_s = scenario.formation_s, scenario.run_s
    spacing = 20.0
    side = scenario.topology.size ** 0.5
    node_ids = sorted(nid for nid in scenario.topology.positions
                      if nid != scenario.topology.root_id)
    center = spacing * (side - 1) / 2.0
    return tuple(
        FaultPlan()
        .crash(now + 0.10 * traffic_s, node_ids[-1],
               recover_after_s=0.20 * traffic_s)
        .sensor_fault(now + 0.25 * traffic_s, node_ids[0], "temp",
                      SensorFault.STUCK, clear_after_s=0.30 * traffic_s)
        .partition(now + 0.40 * traffic_s, cut_x=spacing * (side - 1) - 10.0,
                   heal_after_s=0.20 * traffic_s)
        .flap_link(now + 0.65 * traffic_s, node_ids[0], node_ids[1],
                   down_s=0.05 * traffic_s, cycles=2, up_s=0.05 * traffic_s)
        .interference(now + 0.70 * traffic_s, 0.20 * traffic_s,
                      position=(center, center))
        .clauses
    )


def add_demo_arguments(parser: argparse.ArgumentParser) -> None:
    """The demo's flags, shared by ``report`` and ``explain``."""
    parser.add_argument("--side", type=int, default=3,
                        help="demo grid side (default: 3 -> 9 nodes, the "
                             "gated configuration)")
    parser.add_argument("--duration", type=float, default=120.0,
                        help="seconds of demo traffic after convergence "
                             "(default: 120)")
    parser.add_argument("--seed", type=int, default=2018,
                        help="simulation seed (default: 2018)")


def demo_scenario(parser: argparse.ArgumentParser, args,
                  config: SystemConfig = DEMO.config) -> Scenario:
    """:data:`DEMO` on the parsed ``--side``/``--duration`` (and
    ``config``); a bad flag is a usage error."""
    if args.side < 2:
        parser.error("--side must be >= 2")
    if not 0.0 < args.duration < math.inf:
        parser.error("--duration must be finite and > 0")
    return replace(DEMO, topology=grid_topology(args.side),
                   run_s=args.duration, config=config)


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def _section(title: str) -> str:
    return f"\n{title}\n{'-' * len(title)}"


def _first_trace_of(spans, categories) -> Optional[int]:
    """The lowest trace id containing a span of one of ``categories``."""
    for trace_id in spans.trace_ids():
        for span in spans.spans_for(trace_id):
            if span.category in categories:
                return trace_id
    return None


def _format_table(rows: List[Dict], columns: List[str]) -> List[str]:
    """Fixed-width text table; floats shortened, missing cells blank."""
    def cell(row: Dict, col: str) -> str:
        value = row.get(col, "")
        if isinstance(value, float):
            return f"{value:.3f}".rstrip("0").rstrip(".") or "0"
        return str(value)

    widths = {c: max(len(c), max((len(cell(r, c)) for r in rows), default=0))
              for c in columns}
    lines = ["  ".join(f"{c:>{widths[c]}}" for c in columns)]
    for row in rows:
        lines.append("  ".join(f"{cell(row, c):>{widths[c]}}" for c in columns))
    return lines


def render_report(run: DemoRun, top: int = 8) -> str:
    """The dashboard, as printable text."""
    system = run.system
    metrics = system.obs.registry.snapshot()
    total = metrics.counter_total
    spans = system.obs.spans
    trace = system.trace
    lines: List[str] = []
    lines.append(
        f"observability report — {system.topology.size} nodes, "
        f"t={system.sim.now:.0f}s, seed={system.sim.seed}, "
        f"{system.joined_fraction():.0%} joined"
    )

    lines.append(_section("delivery"))
    sent = total("net.sent")
    delivered = total("net.delivered")
    ratio = delivered / sent if sent else 0.0
    lines.append(f"datagrams: sent={sent:.0f} delivered={delivered:.0f} "
                 f"({ratio:.0%}) forwarded={total('net.forwarded'):.0f} "
                 f"dropped={total('net.dropped'):.0f}")
    lines.append(f"coap: requests={run.requests_sent} responses={run.responses} "
                 f"failures={run.failures} "
                 f"retransmits={total('coap.retransmit'):.0f}")
    lines.append(f"mac tx: {total('mac.tx'):.0f} jobs, "
                 f"queue drops={total('mac.queue_drop'):.0f}")
    lines.extend(mac_summary_lines(
        [system.nodes[nid].stack.mac for nid in sorted(system.nodes)]))

    latencies = metrics.histogram_values("net.latency_s")
    lines.append(_section("end-to-end latency"))
    if latencies:
        lines.append(
            f"n={len(latencies)}  p50={percentile(latencies, 0.5):.4f}s  "
            f"p95={percentile(latencies, 0.95):.4f}s  "
            f"max={max(latencies):.4f}s"
        )
        exemplars = metrics.exemplars_for("net.latency_s")[:3]
        if exemplars:
            # The histogram's worst exemplar traces, linked so the p95
            # row leads straight to attributable span trees.
            lines.append("worst exemplar traces: " + ", ".join(
                f"{trace} ({value:.4f}s)" for value, trace in exemplars)
                + "  [python -m repro explain --trace ID]")
    else:
        lines.append("(no delivered datagrams)")

    duty = [system.nodes[nid].stack.mac.duty_cycle()
            for nid in sorted(system.nodes)]
    lines.append(_section("radio duty cycle"))
    lines.append(f"min={min(duty):.1%}  mean={sum(duty) / len(duty):.1%}  "
                 f"max={max(duty):.1%}")

    lines.append(_section("control plane"))
    lines.append(
        f"rpl: dio={total('rpl.dio'):.0f} "
        f"dao={total('rpl.dao'):.0f} "
        f"parent switches={total('rpl.parent_change'):.0f} "
        f"detaches={total('rpl.detach'):.0f}"
    )
    trickle_tx = total("rpl.trickle.tx")
    trickle_sup = total("rpl.trickle.suppressed")
    fired = trickle_tx + trickle_sup
    suppression = trickle_sup / fired if fired else 0.0
    lines.append(
        f"trickle: tx={trickle_tx:.0f} suppressed={trickle_sup:.0f} "
        f"({suppression:.0%}) resets={total('rpl.trickle.reset'):.0f}"
    )
    rnfd_probes = total("rnfd.probe")
    if rnfd_probes:
        lines.append(
            f"rnfd: probes={rnfd_probes:.0f} "
            f"locally_down={total('rnfd.locally_down'):.0f} "
            f"verdicts={total('rnfd.globally_down'):.0f}"
        )

    lines.append(_section("middleware"))
    lines.append(
        f"aggregation: partials={total('agg.partial'):.0f} "
        f"folds={total('agg.fold'):.0f} "
        f"epochs={total('agg.result'):.0f}"
        + (f" (last avg={run.agg_results[-1].value:.1f} over "
           f"{run.agg_results[-1].node_count} nodes)" if run.agg_results else "")
    )
    lines.append(
        f"crdt: anti-entropy rounds={total('crdt.gossip'):.0f} "
        f"({total('crdt.gossip_bytes'):.0f} B) "
        f"merges={total('crdt.merge'):.0f}"
    )
    lags = metrics.histogram_values("crdt.merge_lag_s")
    if lags:
        lines.append(
            f"merge convergence lag: n={len(lags)} "
            f"p50={percentile(lags, 0.5):.1f}s p95={percentile(lags, 0.95):.1f}s"
        )

    fault_spans = sorted(
        (s for s in spans.spans.values() if s.category.startswith("fault.")),
        key=lambda s: (s.start, s.span_id),
    )
    if fault_spans:
        lines.append(_section("fault timeline"))
        lines.append(f"injected: {total('fault.injected'):.0f} "
                     f"fault events across {len(fault_spans)} spans")
        for span in fault_spans:
            end = f"{span.end:.0f}" if span.end is not None else "open"
            where = f" node={span.node}" if span.node is not None else ""
            extras = " ".join(f"{k}={v}" for k, v in sorted(span.data.items()))
            lines.append(
                f"t={span.start:.0f}..{end}s {span.category}{where}"
                + (f" {extras}" if extras else "")
            )

    telemetry = system.telemetry
    if telemetry is not None:
        lines.append(_section("telemetry windows"))
        lines.append(
            f"interval={telemetry.interval_s:g}s closed={telemetry.windows_closed} "
            f"retained={len(telemetry.windows)} dropped={telemetry.dropped}")
        last = telemetry.last_window
        if last is not None:
            lines.append(
                f"last window {last.index} t={last.start:.0f}..{last.end:.0f}s: "
                f"sent={last.counter_total('net.sent'):.0f} "
                f"delivered={last.counter_total('net.delivered'):.0f} "
                f"mac.tx={last.counter_total('mac.tx'):.0f}")

    rows = health_rows(metrics)
    if rows:
        lines.append(_section("node health (last sample)"))
        columns = ["node", "alive", "duty_cycle", "avg_ma", "queue",
                   "q_drops", "nbrs", "rank", "parent", "crdt_stale_s"]
        lines.extend(_format_table(rows, columns))

    lines.append(_section(f"top trace categories (of {len(trace.counters)})"))
    ranked = sorted(trace.counters.items(), key=lambda kv: (-kv[1], kv[0]))
    for category, count in ranked[:top]:
        lines.append(f"{category:<28} {count:>9,}")

    if run.answered_traces:
        lines.append(_section("sample packet lifecycle (first answered GET)"))
        lines.append(spans.render(run.answered_traces[0]))

    control = _first_trace_of(spans, ("rpl.parent_switch", "rnfd.verdict"))
    if control is not None:
        lines.append(_section("sample control-plane lifecycle"))
        lines.append(spans.render(control))
    middleware = _first_trace_of(spans, ("crdt.anti_entropy", "agg.epoch",
                                         "agg.partial"))
    if middleware is not None:
        lines.append(_section("sample middleware lifecycle"))
        lines.append(spans.render(middleware))

    return "\n".join(lines)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def report_main(argv) -> int:
    """``python -m repro report`` entry point."""
    parser = argparse.ArgumentParser(
        prog="python -m repro report",
        description="Run an instrumented demo deployment and print the "
                    "observability dashboard (metrics, spans).",
    )
    add_demo_arguments(parser)
    parser.add_argument("--top", type=int, default=8,
                        help="rows per ranked table (default: 8)")
    parser.add_argument("--faults", action="store_true",
                        help="drive a demo fault plan (crash, sensor fault, "
                             "partition, link flap, interference) through "
                             "the traffic window")
    parser.add_argument("--export", metavar="DIR",
                        help="write spans.jsonl / metrics.csv / "
                             "metrics.json / explain.txt into DIR")
    parser.add_argument("--span-sample-rate", type=float, default=1.0,
                        metavar="RATE",
                        help="store only this fraction of span traces "
                             "(0..1, default 1.0; metrics stay exact)")
    parser.add_argument("--span-max-stored", type=int, default=None,
                        metavar="N",
                        help="ring-buffer bound on stored spans")
    parser.add_argument("--live", metavar="PATH", default=None,
                        type=argparse.FileType("w"),
                        help="stream telemetry windows as JSONL to PATH "
                             "('-' for stdout) while the run advances; "
                             "follow with `python -m repro tail PATH -f`")
    parser.add_argument("--telemetry-interval", type=float, default=None,
                        metavar="S",
                        help="telemetry window length in sim seconds "
                             "(default: duration/10 when --live is given, "
                             "else telemetry stays off)")
    args = parser.parse_args(argv)
    if not 0.0 <= args.span_sample_rate <= 1.0:
        parser.error("--span-sample-rate must be in [0, 1]")
    if args.span_max_stored is not None and args.span_max_stored < 1:
        parser.error("--span-max-stored must be >= 1")
    if args.telemetry_interval is not None \
            and not 0.0 < args.telemetry_interval < math.inf:
        parser.error("--telemetry-interval must be finite and > 0")

    interval = args.telemetry_interval
    if interval is None and args.live is not None:
        interval = max(1.0, args.duration / 10.0)
    scenario = demo_scenario(parser, args, replace(
        DEMO.config, span_sample_rate=args.span_sample_rate,
        span_max_stored=args.span_max_stored, telemetry_interval_s=interval))
    if args.faults:
        scenario = replace(scenario, faults=demo_faults(scenario))

    def live(system) -> None:
        system.telemetry.sink = args.live

    try:
        run = scenario.run(
            args.seed, observe=None if args.live is None else live).workloads[0]
    finally:
        if args.live not in (None, sys.stdout):
            args.live.close()
    print(render_report(run, top=args.top))
    if args.export:
        written: Dict[str, int] = export_run(
            run.system.trace, args.export,
            snapshot=run.system.obs.registry.snapshot(),
            topology=run.system.topology)
        print(_section("exported"))
        for name in sorted(written):
            print(f"{args.export}/{name}: {written[name]} records")
    return 0


def explain_main(argv) -> int:
    """``python -m repro explain`` entry point."""
    parser = argparse.ArgumentParser(
        prog="python -m repro explain",
        description="Attribute end-to-end latency to layers via the "
                    "critical path of histogram exemplar traces.",
    )
    parser.add_argument("--metric", default="net.latency_s",
                        help="histogram metric to explain "
                             "(default: net.latency_s; 'net.latency' "
                             "is accepted)")
    parser.add_argument("--p", type=float, default=95.0,
                        help="percentile whose exemplars to attribute "
                             "(default: 95)")
    parser.add_argument("--trace", type=int, default=None, metavar="ID",
                        help="drill into one trace id instead of the "
                             "percentile exemplars")
    parser.add_argument("--export", metavar="PATH", default=None,
                        help="write the repro.explain/1 JSON payload "
                             "(compare two with `python -m repro diff`)")
    parser.add_argument("--max-traces", type=int, default=4,
                        help="exemplar traces to attribute (default: 4)")
    add_demo_arguments(parser)
    args = parser.parse_args(argv)
    if not 0.0 <= args.p <= 100.0:
        parser.error("--p must be a percentile in [0, 100]")
    if args.max_traces < 1:
        parser.error("--max-traces must be >= 1")

    # The deterministic report demo — the run the `core` and `explain`
    # gates of benchmarks/gates.py pin.
    system = demo_scenario(parser, args).run(args.seed)
    spans = system.obs.spans

    if args.trace is not None:
        text = render_trace(spans, args.trace)
        if text is None:
            print(f"trace {args.trace} not found")
            return 1
        print(text)
        return 0

    domain_of = getattr(system.topology, "domain_of", None)
    payload = analyze_run(spans, system.obs.registry.snapshot(),
                          metric=args.metric, p=args.p,
                          max_traces=args.max_traces,
                          domain_of=domain_of)
    if payload is None:
        print(f"no exemplars recorded for metric {args.metric!r}")
        return 1
    if args.export:
        with open(args.export, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    print(render_explain(payload))
    return 0
