"""The option surface, pinned: adding a knob is a deliberate edit here.

Every independently settable value doubles the configurations tests and
benchmarks must cover, so the names below are spelled out — a new
``SystemConfig`` field, constructor, constructor keyword or ``REPRO_*``
variable fails this file until it is added on purpose (DESIGN.md, "Conventions":
one way to do each thing).  A run is configured by ``SystemConfig`` alone,
and the library reads no environment variable.  The tooling around the
library — the experiment scripts' variables, the Makefile's overridable
ones — is pinned the same way.
"""

import dataclasses
import functools
import importlib
import inspect
import pathlib
import re
import sys

import pytest

import repro
from repro.app.sweep import ReproBundle
from repro.core.scenario import Rollout, Scenario
from repro.core.system import SystemConfig
from repro.core.workloads import WORKLOADS, Probe
from repro.crdt.replication import AntiEntropyConfig
from repro.net.mac.csma import CsmaConfig
from repro.net.mac.lpl import LplConfig
from repro.net.mac.rimac import RiMacConfig
from repro.net.mac.syncflood import SyncFloodConfig
from repro.net.mac.tsch import TschConfig
from repro.net.rpl.dodag import RplConfig
from repro.net.rpl.rnfd import RnfdConfig
from repro.net.stack import StackConfig
from repro.obs.registry import MetricsSnapshot
from repro.security.auth import AuthConfig

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


# Constructor keywords, per class: every class under src/repro that
# writes an ``__init__`` is pinned here, so a new constructor fails this
# file until it is added on purpose, and each defaulted keyword is one a
# run sets (tests/core/test_reachability.py's keyword census).  A keyword
# no run sets is a module constant of the module that reads it; the
# comments name where such values live.  A component built
# on a collaborator reads the run's ``sim`` and ``trace`` from it
# (DESIGN.md, "Conventions": the clock and the log belong to the run), so
# none of these takes either; only what a run builds from nothing — the
# medium, the kernel's primitives, the observers — is handed them.
# `make census` prints this table and its total.
CONSTRUCTOR_KEYWORDS = {
    # sim
    "Simulator": ["seed"],
    "Timer": ["sim", "callback"],
    # A random phase is drawn from repro.sim.timers.PHASE_STREAM.
    "PeriodicTimer": ["sim", "period", "callback", "phase"],
    "TraceLog": ["enabled"],
    "_Reader": ["table"],
    "TrialExecutor": ["jobs"],
    # radio
    "Medium": ["sim", "model", "trace"],
    "Radio": ["medium", "node_id", "position", "tx_power_dbm", "channel"],
    "WifiInterferer": ["medium", "clause"],
    # obs
    "Registry": [],
    "SpanTracer": ["sample_rate", "sample_seed", "max_spans",
                   "pinned_categories"],
    "_StoredSpans": ["tracer"],
    "Observability": ["span_sample_rate", "span_seed", "span_max"],
    # Retention is the module constant repro.obs.timeseries.RETENTION;
    # the live sink is an attribute `repro report --live` assigns.
    "TelemetryEngine": ["sim", "registry", "interval_s"],
    # The period is the module constant repro.obs.health.PERIOD_S.
    "NodeHealthSampler": ["system", "replicators"],
    # net: MACs (the queue bound is repro.net.mac.base.MAX_QUEUE)
    "MacLayer": ["radio"],
    "CsmaMac": ["radio", "config"],
    "LplMac": ["radio", "config"],
    "RiMac": ["radio", "config"],
    "TschMac": ["radio", "config"],
    "TschSchedule": ["slots"],
    "SixpPeer": ["node_id", "schedule", "rng", "stats"],
    "SyncFloodService": ["medium", "config"],
    # The frame payload bound is repro.net.fragmentation.FRAME_MTU_BYTES.
    "FragmentationAdapter": ["mac", "deliver"],
    "_ReassemblyBuffer": ["count", "deadline"],
    # net: routing (the adaptive variants' bounds are IMIN_SHRINK,
    # IMIN_FLOOR_FACTOR, IMIN_RELAX_AFTER and K_MIN of
    # repro.net.rpl.trickle)
    "TrickleVariant": [],
    "AdaptiveIminVariant": [],
    "AdaptiveKVariant": [],
    "TrickleTimer": ["sim", "imin_s", "doublings", "k", "on_transmit", "rng",
                     "trace", "node", "variant"],
    "NeighborTable": ["capacity"],
    "RplRouter": ["node_id", "transport", "config", "objective", "is_root"],
    "RnfdAgent": ["router", "config"],
    "NetworkStack": ["medium", "node_id", "position", "config", "is_root"],
    # devices (the battery is repro.devices.energy.BATTERY_CAPACITY_MAH;
    # an actuator's range, slew and delay are MINIMUM, MAXIMUM,
    # SLEW_PER_S and ACTUATION_DELAY_S of repro.devices.actuators)
    "Sensor": ["sim", "name", "phenomenon", "position"],
    "Actuator": ["sim", "name"],
    "EnergyMeter": ["radio", "platform"],
    "DeviceNode": ["medium", "node_id", "position", "stack_config",
                   "platform", "is_root"],
    # crdt (the store's port and timeout are STORE_PORT and
    # REQUEST_TIMEOUT_S of repro.crdt.store)
    "GCounter": ["replica_id"],
    "ORSet": ["replica_id"],
    "LWWRegister": ["replica_id"],
    "LWWMap": ["replica_id"],
    "CrdtReplica": ["node_id", "state"],
    "NetworkReplicator": ["stack", "replica", "config"],
    "CoordinatedStore": ["stack"],
    "StoreClient": ["stack", "coordinator"],
    # middleware (the port is repro.middleware.coap.transport.COAP_PORT;
    # the legacy devices' latencies are BUS_LATENCY_S of
    # repro.middleware.adapters.modbus, LINE_LATENCY_S and
    # BUSY_PROBABILITY of repro.middleware.adapters.proprietary)
    "CoapTransport": ["stack"],
    "_PendingCon": ["message", "dest", "timeout", "timer", "on_fail", "ctx"],
    "CoapServer": ["transport"],
    "CoapClient": ["transport"],
    "Resource": ["path"],
    "CallbackResource": ["path", "on_get", "on_put"],
    "ResourceDirectory": [],
    "Gateway": ["stack"],
    "LegacyModbusDevice": ["sim", "unit_id", "registers"],
    "ModbusAdapter": ["device", "register_map"],
    "ProprietaryAsciiDevice": ["sim", "name", "variables"],
    "ProprietaryAdapter": ["device"],
    # aggregation (the ports are AGGREGATION_PORT and RAW_PORT of
    # repro.aggregation.service, PULL_PORT of repro.aggregation.pull;
    # the pull buffer's length is repro.aggregation.pull.BUFFER_SIZE)
    "AggregationService": ["node"],
    "RawCollectionService": ["node", "root_id"],
    "KoalaPullService": ["node", "root_id"],
    # safety (a tracker samples every
    # repro.safety.comfort.SAMPLE_PERIOD_S)
    "ThermalZone": ["sim", "name", "outside", "occupants", "initial_temp_c"],
    "OccupancySchedule": ["periods"],
    "ComfortTracker": ["sim", "temperature", "band", "schedule"],
    "_ZoneTemperature": ["zone"],
    "HvacZone": ["node", "outside", "band", "schedule", "control_period_s",
                 "initial_temp_c"],
    "RemoteControlLoop": ["zone", "controller_node", "fallback",
                          "fallback_timeout_s"],
    "RemoteHvacController": ["root_node"],
    # security
    "KeyStore": ["node_id"],
    "FrameAuthenticator": ["mac", "keystore", "config"],
    "CommandInjector": ["medium", "node_id", "position"],
    "AnomalyDetector": ["sim", "trace", "rejection_threshold", "window_s"],
    # faults
    "FaultPlanRuntime": ["system", "clauses"],
    # checking (each sampling period is the PERIOD_S of its checker's
    # module; the availability floor is
    # repro.checking.availability.FLOOR, the DODAG persistence
    # repro.checking.rpl.PERSISTENCE, the collision window
    # repro.checking.macradio.WINDOW_S)
    "InvariantChecker": [],
    "CheckerSuite": ["sim", "trace"],
    "DodagStructureChecker": ["routers", "alive"],
    "DeliveredPathChecker": ["node_count"],
    "RadioStateChecker": ["medium"],
    "CollisionAccountingChecker": ["medium"],
    "CoapExchangeChecker": [],
    "CrdtLatticeChecker": [],
    "ComfortEnvelopeChecker": ["margin_c", "settle_s"],
    "AvailabilityChecker": ["system", "endpoints", "settle_s", "partitions"],
    # core
    "TimeSeriesStore": [],
    "IIoTSystem": ["sim", "medium", "trace", "topology", "config"],
    "Driver": ["system", "workload", "scenario"],
    "ProbeRun": ["system", "probe", "scenario"],
    "_PartitionCrdtRun": ["system", "workload", "scenario"],
    "DemoRun": ["system", "workload", "scenario"],
    # app (the replay window is repro.app.sweep.WINDOW_S, and a replay
    # takes only the bundle)
    "SeedSweepRunner": ["name", "scenario"],
    "_Window": ["suite"],
}


@functools.lru_cache(maxsize=None)
def _constructor_modules():
    """Class name -> the module under src/repro whose class writes an
    ``__init__`` (the keyword census's list)."""
    from tests.core.test_reachability import constructors
    return {name: init.module for name, init in constructors().items()}


def test_every_constructor_is_pinned():
    assert sorted(CONSTRUCTOR_KEYWORDS) == sorted(_constructor_modules())


@pytest.mark.parametrize("name", list(CONSTRUCTOR_KEYWORDS))
def test_constructor_keywords(name):
    module = _constructor_modules()[name][:-len(".py")]
    module = "repro." + module.removesuffix("/__init__").replace("/", ".")
    cls = getattr(importlib.import_module(module), name)
    assert _keywords(cls) == CONSTRUCTOR_KEYWORDS[name]


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
    for name, keywords in CONSTRUCTOR_KEYWORDS.items():
        print(f"{name:<26} {', '.join(keywords) or '-'}", file=out)
    print(f"\n{len(CONSTRUCTOR_KEYWORDS)} classes, "
          f"{sum(map(len, CONSTRUCTOR_KEYWORDS.values()))} constructor "
          f"keywords", file=out)


if __name__ == "__main__":
    report()
