"""The option surface, pinned: adding a knob is a deliberate edit here.

Every independently settable value doubles the configurations tests and
benchmarks must cover, so the names below are spelled out — a new
``SystemConfig`` field, constructor keyword or ``REPRO_*`` variable
fails this file until it is added on purpose (DESIGN.md, "Conventions":
one way to do each thing).  A run is configured by ``SystemConfig`` alone,
and the library reads no environment variable.  The tooling around the
library — the experiment scripts' variables, the Makefile's overridable
ones — is pinned the same way.
"""

import dataclasses
import inspect
import pathlib
import re
import sys

import pytest

import repro
from repro.app.sweep import ReproBundle, SeedSweepRunner
from repro.core.scenario import Rollout, Scenario
from repro.core.system import SystemConfig
from repro.core.workloads import WORKLOADS, Probe
from repro.crdt.replication import AntiEntropyConfig
from repro.aggregation.pull import KoalaPullService
from repro.aggregation.service import AggregationService, RawCollectionService
from repro.crdt.replication import NetworkReplicator
from repro.devices.node import DeviceNode
from repro.middleware.coap.server import CoapServer
from repro.middleware.coap.transport import CoapTransport
from repro.middleware.gateway import Gateway
from repro.net.fragmentation import FragmentationAdapter
from repro.net.mac.base import MacLayer
from repro.net.mac.csma import CsmaConfig, CsmaMac
from repro.net.mac.lpl import LplConfig, LplMac
from repro.net.mac.rimac import RiMac, RiMacConfig
from repro.net.mac.syncflood import SyncFloodConfig, SyncFloodService
from repro.net.mac.tsch import TschConfig, TschMac
from repro.net.rpl.dodag import RplConfig, RplRouter
from repro.net.rpl.rnfd import RnfdAgent, RnfdConfig
from repro.net.stack import NetworkStack, StackConfig
from repro.obs import Observability
from repro.obs.health import NodeHealthSampler
from repro.obs.registry import MetricsSnapshot, Registry
from repro.obs.timeseries import TelemetryEngine
from repro.parallel import TrialExecutor
from repro.radio.interference import WifiInterferer
from repro.radio.medium import Medium
from repro.safety.hvac import RemoteHvacController
from repro.security.attacks import CommandInjector
from repro.security.auth import AuthConfig, FrameAuthenticator
from repro.sim.trace import TraceLog


def _keywords(cls):
    params = list(inspect.signature(cls.__init__).parameters.values())[1:]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params), \
        "no **kwargs side door"
    return [p.name for p in params]


def test_system_config_fields():
    # ``trace_enabled`` (keep a bounded trace tail; nothing in src/ sets
    # it since repro bundles replay) stays only because the layered
    # benchmark builds
    # ``SystemConfig(trace_enabled=self.observed)`` in
    # benchmarks/layers/workloads.py: on for grid_csma_observed, off for
    # the plain workloads.
    assert [f.name for f in dataclasses.fields(SystemConfig)] == [
        "stack", "trace_enabled", "invariant_checking", "observability",
        "span_sample_rate", "span_max_stored", "telemetry_interval_s",
    ]


# Every other ``*Config``: only fields some run sets
# (tests/core/test_reachability.py's field census); a one-value
# parameter is a module constant of the module that reads it.
CONFIG_FIELDS = {
    StackConfig: ["mac", "mac_config", "rpl", "objective", "rnfd_enabled",
                  "rnfd", "channel", "upward_retries"],
    RplConfig: ["trickle_imin_s", "trickle_doublings", "trickle_k",
                "trickle_variant", "dao_period_s", "dis_period_s",
                "parent_fail_threshold", "staleness_timeout_s",
                "staleness_check_period_s", "float_delay_s"],
    RnfdConfig: ["probe_period_s", "fail_threshold"],
    CsmaConfig: ["max_retries"],
    LplConfig: ["wake_interval_s", "phase_lock"],
    RiMacConfig: ["wake_interval_s"],
    TschConfig: ["slotframe_slots"],
    SyncFloodConfig: ["per_hop_reliability"],
    AntiEntropyConfig: ["period_s"],
    AuthConfig: ["mic_bytes"],
}


@pytest.mark.parametrize("cls", list(CONFIG_FIELDS), ids=lambda cls: cls.__name__)
def test_config_fields(cls):
    assert [f.name for f in dataclasses.fields(cls)] == CONFIG_FIELDS[cls]


# A run is one Scenario: its fields and those of the values it holds.
def test_scenario_fields():
    assert [f.name for f in dataclasses.fields(Scenario)] == [
        "topology", "config", "link_model", "sensors", "rollout", "faults",
        "faults_at_s", "grace_s", "workloads", "formation_s", "run_s"]
    assert [f.name for f in dataclasses.fields(Rollout)] == [
        "pilot_size", "growth_factor", "stage_interval_s"]


def test_workload_fields():
    assert {kind: [f.name for f in dataclasses.fields(cls)]
            for kind, cls in WORKLOADS.items()} == {
        "probe": ["sources", "count", "period_s", "stagger_s", "copies",
                  "size"],
        "partition-crdt": [], "hvac-safety": [], "availability-probe": [],
        "demo": []}
    assert WORKLOADS["probe"] is Probe


def test_repro_bundle_fields():
    # A bundle is what replays the run, nothing recorded from it.
    assert [f.name for f in dataclasses.fields(ReproBundle)] == [
        "name", "seed", "violations", "scenario"]


# Constructor keywords, per class.  A component built on a collaborator
# reads the run's ``sim`` and ``trace`` from it (DESIGN.md, "Conventions":
# the clock and the log belong to the run), so none of these takes
# either; only what a run builds from nothing — the medium, the kernel's
# primitives, the observers — is handed them.  `make census` prints this
# table and its total.
CONSTRUCTOR_KEYWORDS = {
    # The queue bound is the module constant repro.net.mac.base.MAX_QUEUE.
    MacLayer: ["radio"],
    CsmaMac: ["radio", "config"],
    LplMac: ["radio", "config"],
    RiMac: ["radio", "config"],
    TschMac: ["radio", "config"],
    SyncFloodService: ["medium", "config"],
    # The frame payload bound is repro.net.fragmentation.FRAME_MTU_BYTES.
    FragmentationAdapter: ["mac", "deliver"],
    RplRouter: ["node_id", "transport", "config", "objective", "is_root"],
    RnfdAgent: ["router", "config"],
    NetworkStack: ["medium", "node_id", "position", "config", "is_root"],
    DeviceNode: ["medium", "node_id", "position", "stack_config",
                 "platform", "battery", "is_root"],
    # The port is repro.middleware.coap.transport.COAP_PORT.
    CoapTransport: ["stack"],
    CoapServer: ["transport"],
    Gateway: ["stack"],
    # The ports are AGGREGATION_PORT and RAW_PORT of
    # repro.aggregation.service, PULL_PORT of repro.aggregation.pull;
    # the pull buffer's length is repro.aggregation.pull.BUFFER_SIZE.
    AggregationService: ["node"],
    RawCollectionService: ["node", "root_id"],
    KoalaPullService: ["node", "root_id"],
    NetworkReplicator: ["stack", "replica", "config"],
    FrameAuthenticator: ["mac", "keystore", "config"],
    RemoteHvacController: ["root_node"],
    CommandInjector: ["medium", "node_id", "position"],
    WifiInterferer: ["medium", "clause"],
    Medium: ["sim", "model", "trace"],
    TraceLog: ["enabled"],
    Registry: [],
    Observability: ["span_sample_rate", "span_seed", "span_max"],
    # Retention is the module constant repro.obs.timeseries.RETENTION;
    # the live sink is an attribute `repro report --live` assigns.
    TelemetryEngine: ["sim", "registry", "interval_s", "domain_of"],
    # The period is the module constant repro.obs.health.PERIOD_S.
    NodeHealthSampler: ["system", "replicators"],
    TrialExecutor: ["jobs"],
    # The replay window is the module constant
    # repro.app.sweep.WINDOW_S, and a replay takes only the bundle.
    SeedSweepRunner: ["name", "scenario"],
}


@pytest.mark.parametrize("cls", list(CONSTRUCTOR_KEYWORDS),
                         ids=lambda cls: cls.__name__)
def test_constructor_keywords(cls):
    assert _keywords(cls) == CONSTRUCTOR_KEYWORDS[cls]


def test_metrics_snapshot_fields():
    assert [f.name for f in dataclasses.fields(MetricsSnapshot)] == [
        "counters", "gauges", "histograms", "exemplars"]


def test_environment_variables_read_by_the_library():
    root = pathlib.Path(repro.__file__).parent
    names, environ_files = set(), set()
    for path in root.rglob("*.py"):
        text = path.read_text()
        names.update(re.findall(
            r"""(?:environ(?:\.get\(|\[)|getenv\()\s*["'](REPRO_\w+)""", text))
        if "os.environ" in text or "getenv" in text:
            environ_files.add(path.relative_to(root).as_posix())
    assert names == set()
    assert environ_files == set()


def _repo_root():
    return pathlib.Path(__file__).resolve().parents[2]


def test_environment_variables_read_by_the_experiment_scripts():
    # benchmarks/layers is the PR driver's harness, with a surface of
    # its own; everything else under benchmarks/ shares this one.
    benchmarks = _repo_root() / "benchmarks"
    names = set()
    for path in benchmarks.rglob("*.py"):
        if "layers" not in path.relative_to(benchmarks).parts:
            names.update(re.findall(
                r"""(?:environ(?:\.get\(|\[)|getenv\()\s*["'](REPRO_\w+)""",
                path.read_text()))
    assert names == {"REPRO_BENCH_JOBS"}


def test_makefile_variables():
    makefile = (_repo_root() / "Makefile").read_text()
    assert re.findall(r"^(\w+) \?=", makefile, re.M) == [
        "PYTHON", "SEEDS", "JOBS", "SEED", "EXPORT"]


def report(out=sys.stdout) -> None:
    """What ``make census`` prints of the constructor surface: per
    pinned class its keywords, then the total."""
    for cls, names in CONSTRUCTOR_KEYWORDS.items():
        print(f"{cls.__name__:<22} {', '.join(names) or '-'}", file=out)
    print(f"\n{len(CONSTRUCTOR_KEYWORDS)} classes, "
          f"{sum(map(len, CONSTRUCTOR_KEYWORDS.values()))} constructor "
          f"keywords", file=out)


if __name__ == "__main__":
    report()
