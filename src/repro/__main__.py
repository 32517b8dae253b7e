"""``python -m repro`` — a 30-second guided demo, plus subcommands.

With no arguments: builds a small deployment, converges it, runs one
aggregation query, kills the border router to show RNFD, and prints the
taxonomy verdicts.  A first argument names one of :data:`SUBCOMMANDS`
(``python -m repro --help`` lists them): ``sweep`` runs the built-in
fault scenarios under full invariant checking across many seeds, and
``replay`` re-runs one of their seeds (see DESIGN.md, "Runtime
invariant checking").  Any other first argument is a usage error.  For
the full experiment suite run ``pytest benchmarks/ --benchmark-only``.
"""

from __future__ import annotations

import argparse
import sys

from repro import __version__
from repro.aggregation.service import AggregationService
from repro.app.dependability import dependability_main
from repro.app.report import explain_main, report_main
from repro.app.scenarios import BUILTIN_SCENARIOS
from repro.app.sweep import ReproBundle, SeedSweepRunner, replay
from repro.core.scenario import Scenario
from repro.core.system import SystemConfig
from repro.deployment.topology import grid_topology
from repro.devices.phenomena import DiurnalField
from repro.faults.plan import FaultPlan
from repro.net.rpl.dodag import RplConfig, RplState
from repro.net.rpl.rnfd import RnfdConfig
from repro.net.stack import StackConfig
from repro.obs.diff import diff_main
from repro.obs.tail import tail_main


def sweep_main(argv) -> int:
    """``python -m repro sweep`` — seed-sweep the built-in scenarios."""
    parser = argparse.ArgumentParser(
        prog="python -m repro sweep",
        description="Run fault scenarios under runtime invariant checking "
                    "across many seeds; exit nonzero on any violation.",
    )
    parser.add_argument("--scenario", choices=sorted(BUILTIN_SCENARIOS),
                        action="append",
                        help="scenario to sweep (default: all built-ins)")
    parser.add_argument("--seeds", type=int, default=10,
                        help="seeds per scenario (default: 10)")
    parser.add_argument("--base-seed", type=int, default=1,
                        help="base of the deterministic seed list")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the sweep (0 = all "
                             "cores; default: 1, serial). Outcomes are "
                             "identical for every jobs count.")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be >= 1")

    names = args.scenario if args.scenario else sorted(BUILTIN_SCENARIOS)
    failed = False
    for name in names:
        runner = SeedSweepRunner(name, BUILTIN_SCENARIOS[name])
        outcomes = runner.run_count(args.seeds, base_seed=args.base_seed,
                                    jobs=args.jobs)
        bad = [o for o in outcomes if not o.clean]
        verdict = "OK" if not bad else f"{len(bad)} seed(s) VIOLATED"
        print(f"{name}: {len(outcomes)} seeds, {verdict}")
        for outcome in bad:
            failed = True
            print(outcome.bundle.summary())
    return 1 if failed else 0


def replay_main(argv) -> int:
    """``python -m repro replay`` — re-run one seed of a built-in."""
    parser = argparse.ArgumentParser(
        prog="python -m repro replay",
        description="Re-run one seed of a built-in scenario fully "
                    "observed: its violations, the trace and span trees "
                    "of the 120 s up to the first, and its latency "
                    "waterfall; exit 1 on any violation.",
    )
    parser.add_argument("--scenario", choices=sorted(BUILTIN_SCENARIOS),
                        required=True, help="the scenario to replay")
    parser.add_argument("--seed", type=int, required=True,
                        help="the seed to replay (a bundle's seed=)")
    args = parser.parse_args(argv)
    description = BUILTIN_SCENARIOS[args.scenario].to_jsonable()
    result = replay(ReproBundle(args.scenario, args.seed, [], description))
    print(result.render())
    return 1 if result.violations else 0


def demo_main() -> int:
    """``python -m repro`` with no arguments — the guided demo."""
    print(f"repro {__version__} — 'A Distributed Systems Perspective on "
          f"Industrial IoT' (ICDCS 2018), executable\n")

    config = SystemConfig(stack=StackConfig(
        mac="csma",
        rnfd_enabled=True,
        rnfd=RnfdConfig(probe_period_s=10.0),
        rpl=RplConfig(dao_period_s=1e6),
    ))
    system = Scenario(topology=grid_topology(4), config=config,
                      sensors=(("temp", DiurnalField(mean=19.0)),),
                      formation_s=300.0).build(2018)
    print(f"[1] sensing/actuation tier: {system.topology.size} devices, "
          f"{system.joined_fraction():.0%} self-organized into the DODAG")

    services = [AggregationService(node) for node in system.nodes.values()]
    results = []
    services[0].run_query("temp", "avg", epoch_s=30.0, lifetime_epochs=3,
                          on_result=results.append)
    system.run(150.0)
    print(f"[2] in-network aggregation: "
          + ", ".join(f"epoch {r.epoch}: {r.value:.1f} C ({r.node_count} nodes)"
                      for r in results))

    kill_time = system.sim.now
    FaultPlan().kill_border_router(kill_time).install(system)
    system.run(120.0)
    aware = sum(
        1 for node in system.nodes.values()
        if not node.is_root and node.stack.rpl.state is not RplState.JOINED
    )
    print(f"[3] border router killed at t={kill_time:.0f}s; RNFD spread the "
          f"verdict to {aware}/{system.topology.size - 1} nodes in <120 s "
          f"(DIO-staleness baseline: ~1500 s)")

    print("\nFull reproduction: pytest benchmarks/ --benchmark-only -s "
          "(one benchmark per claim; see EXPERIMENTS.md)")
    print("Invariant sweep:    python -m repro sweep  "
          "(fault scenarios under runtime checking)")
    print("Observability:      python -m repro report  "
          "(metrics, node health, packet + control-plane lifecycles)")
    print("Regression diff:    python -m repro diff A.json B.json "
          "--fail-on 0.05  (compare exported metrics snapshots)")
    print("Dependability gate: python -m repro dependability  "
          "(fault-plan scenarios + availability-axis grading)")
    print("Live telemetry:     python -m repro report --live run.jsonl; "
          "python -m repro tail run.jsonl  (windowed time-series stream)")
    return 0


#: ``python -m repro NAME ARGS...``: NAME -> (its entry point, taking
#: ARGS, and the one line ``--help`` prints for it).
SUBCOMMANDS = {
    "sweep": (sweep_main, "seed-sweep the built-in fault scenarios under "
                          "invariant checking"),
    "replay": (replay_main, "re-run one seed of a built-in scenario fully "
                            "observed"),
    "report": (report_main, "the observability dashboard of an "
                            "instrumented demo"),
    "explain": (explain_main, "attribute a latency percentile of the demo "
                              "to layers"),
    "diff": (diff_main, "compare two metrics snapshots or explain "
                        "payloads"),
    "dependability": (dependability_main, "the dependability gate: fault-"
                                          "plan scenarios, availability"),
    "tail": (tail_main, "render a telemetry window stream"),
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        usage="%(prog)s [-h] [SUBCOMMAND [ARGS ...]]",
        description="With no subcommand: a 30-second guided demo. "
                    "`python -m repro SUBCOMMAND --help` describes one.",
        epilog="subcommands:\n" + "\n".join(
            f"  {name:<15} {summary}"
            for name, (_, summary) in SUBCOMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("subcommand", nargs="?", choices=list(SUBCOMMANDS),
                        metavar="SUBCOMMAND",
                        help="one of the subcommands below")
    args = parser.parse_args(argv[:1])
    if args.subcommand is None:
        return demo_main()
    return SUBCOMMANDS[args.subcommand][0](argv[1:])


if __name__ == "__main__":
    sys.exit(main())
