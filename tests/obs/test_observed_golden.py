"""Golden observation of one fully observed run, pinned by digest.

A grid(3) demo with spans, telemetry and every checker on, its whole
trace stream subscribed: the sha256 of every record, in emission order,
and of the span table, in span-id order.  It was recorded when a record
was a frozen dataclass and a span was reached through a separate
context handle; the tuple records and span handles reproduce both byte
for byte.

The ``core`` gate observes the CSMA demo only, so the same demo on TSCH
and on LPL is pinned here too, by the sha256 of its final metrics
snapshot and of its telemetry windows, each as the JSON the exporters
write.  They were recorded while every counter was still pushed beside
the count its owner keeps; read from the owners, the JSON is the same
byte for byte.  They were re-recorded when the ``health.mac_queue_drops``
gauge went (it repeated the ``mac.queue_drop`` counter): its nine
series left both, and nothing else moved.

A legitimate behaviour change re-records ``GOLDEN``/``MAC_GOLDEN``; a
performance change to the observation plane must not need to.
"""

import dataclasses
import hashlib
import json
from typing import Any, Dict, Iterable

from repro.core.scenario import Scenario
from repro.core.system import SystemConfig
from repro.core.workloads import Demo
from repro.deployment.topology import grid_topology
from repro.devices.phenomena import DiurnalField
from repro.net.stack import StackConfig

SCENARIO = Scenario(
    topology=grid_topology(3),
    config=SystemConfig(observability=True, invariant_checking=True,
                        telemetry_interval_s=10.0),
    sensors=(("temp", DiurnalField(mean=21.0)),),
    workloads=(Demo(),),
    formation_s=180.0,
    run_s=120.0,
)
SEED = 7

GOLDEN = {
    "records": 1582,
    "records_sha256":
        "83a3974b8c986e69531d94cae0caebe1342a1f3fd3339d9627885c2d6cbbad85",
    "spans": 1158,
    "spans_sha256":
        "81bb14a81e4e6c4a69b45cab980be10fa1500d33b6e521a84fa7cf7316e9d464",
    "violations": 0,
    "windows": 30,
}


def _sha256(lines: Iterable[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def observe() -> Dict[str, Any]:
    records = []
    system = SCENARIO.run(SEED, observe=lambda system: (
        system.trace.subscribe_stream(records.append)))
    spans = [span for _, span in sorted(system.obs.spans.spans.items())]
    return {
        "records": len(records),
        "records_sha256": _sha256(
            repr((r.time, r.category, r.node, r.data)) for r in records),
        "spans": len(spans),
        "spans_sha256": _sha256(
            repr((s.span_id, s.trace_id, s.parent_id, s.category, s.node,
                  s.start, s.end, s.data)) for s in spans),
        "violations": len(system.checkers.finish()),
        "windows": system.telemetry.windows_closed,
    }


#: Per MAC: the final snapshot's and the windows' sha256, and the
#: number of windows.
MAC_GOLDEN = {
    "tsch": {
        "snapshot_sha256":
            "d3de76ec89f68cf4439f95f10526318756f5b8d1f5de8f6850b1237946ccf842",
        "windows_sha256":
            "d3b0ea2ad4edaf5023f2b93f0094027e73efd0fe243fe8643f3037fe18d02617",
        "windows": 30,
    },
    "lpl": {
        "snapshot_sha256":
            "f88c2cba5ad2b683d0e44ec640721051b9b176cf329ffd2c7b370f8f22ceb14c",
        "windows_sha256":
            "73775354c4ea8d5909c49d1121227bed665391378fc1ae5ae2527012fc8a0fa1",
        "windows": 30,
    },
}


def observe_metrics(mac: str) -> Dict[str, Any]:
    scenario = dataclasses.replace(SCENARIO, config=dataclasses.replace(
        SCENARIO.config, stack=StackConfig(mac=mac)))
    system = scenario.run(SEED)
    windows = system.telemetry.windows
    return {
        "snapshot_sha256": _sha256([json.dumps(
            system.obs.registry.snapshot().to_jsonable(), sort_keys=True)]),
        "windows_sha256": _sha256(json.dumps(w.to_jsonable(), sort_keys=True)
                                  for w in windows),
        "windows": len(windows),
    }


def test_the_observed_run_matches_its_golden():
    assert observe() == GOLDEN


def test_the_observed_tsch_and_lpl_metrics_match_their_golden():
    assert {mac: observe_metrics(mac) for mac in MAC_GOLDEN} == MAC_GOLDEN


if __name__ == "__main__":  # re-record: PYTHONPATH=src:. python tests/obs/test_observed_golden.py
    import pprint
    pprint.pprint(observe(), sort_dicts=False)
    pprint.pprint({mac: observe_metrics(mac) for mac in MAC_GOLDEN},
                  sort_dicts=False)
