"""E5 — RNFD: parallel border-router failure detection (paper §IV-B,
ref [32]).

Claim reproduced: "by exploiting parallelism, one can improve the
efficiency of border router failure detection by orders of magnitude".
Sentinels next to the root probe it in parallel and share verdicts
through a CFRC; the alternative is every node discovering the failure
alone through DIO-staleness timeouts.

The network is quiescent (buffered-telemetry regime) so detection cannot
piggyback on data-plane feedback.  The fail-threshold row pair is the
ablation DESIGN.md calls out.
"""

from benchmarks._common import once, publish, run_trials
from repro.core.scenario import Scenario
from repro.core.system import SystemConfig
from repro.deployment.topology import grid_topology
from repro.faults.plan import BORDER_ROUTER, CrashClause
from repro.net.rpl.dodag import RplConfig, RplState
from repro.net.rpl.rnfd import RnfdConfig
from repro.net.stack import StackConfig
from repro.obs.registry import percentile

STALENESS_S = 1500.0
FORMATION_S = 300.0
RUN_S = 6000.0


def _run(rnfd_enabled, seed, probe_period=10.0, fail_threshold=3):
    config = SystemConfig(stack=StackConfig(
        mac="csma",
        rnfd_enabled=rnfd_enabled,
        rnfd=RnfdConfig(probe_period_s=probe_period,
                        fail_threshold=fail_threshold),
        rpl=RplConfig(staleness_timeout_s=STALENESS_S, dao_period_s=1e6),
    ))
    # The border router dies the instant formation ends.
    system = Scenario(topology=grid_topology(4), config=config,
                      faults=(CrashClause(FORMATION_S, BORDER_ROUTER),),
                      formation_s=FORMATION_S).build(seed)
    assert system.converged()
    first_detach = {}

    def on_detached(record):
        first_detach.setdefault(record.node, record.time - FORMATION_S)

    system.trace.subscribe("rpl.detached", on_detached)
    system.run(RUN_S)

    survivors = [n for n in system.nodes.values() if not n.is_root]
    times = sorted(first_detach.values())
    aware = len(first_detach) / len(survivors)
    return {
        "aware": aware,
        "t50": percentile(times, 0.5) if times else float("nan"),
        "t90": percentile(times, 0.9) if times else float("nan"),
        "t100": times[-1] if aware == 1.0 else float("nan"),
        "control_tx": sum(n.stack.rpl.dio_sent for n in survivors),
    }


#: (label, _run args) per table row; rows are independent trials, so
#: they fan out under REPRO_BENCH_JOBS.
_CONFIGS = (
    ("RNFD (probe 10s, k=3)", (True, 71, 10.0, 3)),
    ("RNFD (probe 30s, k=3)", (True, 71, 30.0, 3)),
    ("RNFD (probe 10s, k=6)", (True, 71, 10.0, 6)),
    ("baseline: DIO staleness", (False, 71)),
)


def run_e5():
    results = run_trials(_run, [args for _, args in _CONFIGS])
    return [
        {
            "detector": label,
            "nodes aware": result["aware"],
            "t50 [s]": result["t50"],
            "t90 [s]": result["t90"],
            "t100 [s]": result["t100"],
        }
        for (label, _), result in zip(_CONFIGS, results)
    ]


def bench_e5_rnfd(benchmark):
    rows = once(benchmark, run_e5)
    publish("e5_rnfd",
            "E5 (paper s IV-B, ref [32]): time for the network to learn "
            "the border router died", rows)
    fast = rows[0]
    baseline = rows[-1]
    assert fast["nodes aware"] == 1.0
    # Orders of magnitude: the paper's headline claim.
    assert fast["t90 [s]"] * 10 < baseline["t90 [s]"]
    # Ablations move in the expected directions.
    assert rows[0]["t90 [s]"] < rows[1]["t90 [s]"]  # slower probing slower
    assert rows[0]["t90 [s]"] <= rows[2]["t90 [s]"]  # higher threshold slower
