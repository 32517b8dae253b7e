"""Shared fixtures and builders for the test suite."""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

import numpy as np
import pytest

from repro.devices.phenomena import DiurnalField
from repro.net.packet import FrameKind, MacFrame
from repro.net.stack import NetworkStack, StackConfig
from repro.obs.timeseries import TelemetryWindow
from repro.radio.medium import Frame, Medium, Radio, RadioState
from repro.radio.propagation import UnitDiskModel
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceLog, TraceRecord


@pytest.fixture
def sim() -> Simulator:
    """A fresh deterministic simulator."""
    return Simulator(seed=1234)


@pytest.fixture
def trace() -> TraceLog:
    return TraceLog()


@pytest.fixture(scope="module")
def multicore():
    """``repro.parallel`` sees four usable cores for the module's tests.

    On a single-core host a ``jobs > 1`` request takes the executor's
    serial fast-path; with this fixture it dispatches to the warm pool
    on any host, so the tests exercise the real workers.  Outputs are
    identical either way.  The pools are shut down once, when the
    module ends: tearing them down per test would defeat warm reuse.
    """
    from repro import parallel

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(parallel, "usable_cores", lambda: 4)
        yield
    parallel.shutdown_shared_pools()


class TraceRecorder:
    """Every record each :class:`TraceLog` emits while installed.

    ``TraceLog`` keeps counters, subscribers and a bounded tail — no
    stream.  The whole-stream oracles (same seed, same records; indexed
    medium vs full scan; lazy vs eager TSCH) compare everything a run
    emitted, so the recorder holds a stream subscription
    (:meth:`TraceLog.subscribe_stream`) on every log built while it is
    installed, and on each log built before it that it is given:
    ``recorder(log)`` is that log's records, in emission order.  A
    recorded log is watched in every category, so each of its emits
    builds and delivers its record.  Use the :func:`recorded` fixture
    (which records the test's ``trace``), or ``with
    TraceRecorder(medium.trace) as recorder:`` inside a hypothesis
    test.  Test-side only — no run keeps a stream.
    """

    def __init__(self, *logs: TraceLog) -> None:
        self._logs = logs
        self._streams: Dict[TraceLog, List[TraceRecord]] = {}
        self._detach: List[Any] = []
        self._init = TraceLog.__init__

    def __call__(self, log: TraceLog) -> List[TraceRecord]:
        return self._streams.get(log, [])

    def _attach(self, log: TraceLog) -> None:
        stream = self._streams[log] = []
        self._detach.append(log.subscribe_stream(stream.append))

    def __enter__(self) -> "TraceRecorder":
        init, attach = self._init, self._attach
        for log in self._logs:
            attach(log)

        def recording_init(log, *args, **kwargs):
            init(log, *args, **kwargs)
            attach(log)

        TraceLog.__init__ = recording_init
        return self

    def __exit__(self, *exc_info) -> None:
        TraceLog.__init__ = self._init
        for detach in self._detach:
            detach()


@pytest.fixture
def recorded(trace):
    """A :class:`TraceRecorder` installed for the test's duration; it
    records the test's ``trace`` fixture too."""
    with TraceRecorder(trace) as recorder:
        yield recorder


def build_medium(
    sim: Simulator,
    trace: Optional[TraceLog] = None,
    radius_m: float = 25.0,
) -> Medium:
    """A unit-disk medium (deterministic links) for protocol tests."""
    return Medium(sim, UnitDiskModel(radius_m=radius_m),
                  trace if trace is not None else TraceLog())


def constant_field(value: float = 20.0) -> DiurnalField:
    """The same value everywhere and always: a diurnal field with no
    cycle and no gradient."""
    return DiurnalField(mean=value, amplitude=0.0, gradient_per_m=0.0)


class FullScanMedium(Medium):
    """A :class:`Medium` that uses no spatial index.

    Every attached radio is a candidate of every sender — no cells, no
    disc, no range bound — and every overlap query (CCA, audible-until,
    collision arbitration) reads the global end-time heap; a cached
    neighbourhood is reused only while nothing anywhere changed.  The
    reference the indexed medium must reproduce byte for byte.
    Test-side only: ``src/`` has one medium path.
    """

    def _in_reach(self, sender, cells):
        return np.arange(len(self.radios))

    def _active_around(self, position, reach):
        return self._active

    def _neighborhood(self, sender):
        entry = self._neighborhoods.get(sender.node_id)
        if entry is None or entry.world_version != self._world_version:
            entry = self._build_neighborhood(sender)
            self._neighborhoods[sender.node_id] = entry
        return entry

    def grid_info(self):
        return dict(super().grid_info(), spatial_index=False)


def build_line_network(
    n: int,
    mac: str = "csma",
    spacing_m: float = 20.0,
    seed: int = 1,
    config: Optional[StackConfig] = None,
    radius_m: float = 25.0,
) -> Tuple[Simulator, TraceLog, List[NetworkStack]]:
    """A line of ``n`` stacks with the root at index 0, all started."""
    simulator = Simulator(seed=seed)
    log = TraceLog()
    medium = Medium(simulator, UnitDiskModel(radius_m=radius_m), log)
    stack_config = config if config is not None else StackConfig(mac=mac)
    stacks = [
        NetworkStack(
            simulator, medium, i, (i * spacing_m, 0.0),
            stack_config, is_root=(i == 0), trace=log,
        )
        for i in range(n)
    ]
    for stack in stacks:
        stack.start()
    return simulator, log, stacks


def build_grid_network(
    side: int,
    mac: str = "csma",
    spacing_m: float = 20.0,
    seed: int = 1,
    config: Optional[StackConfig] = None,
) -> Tuple[Simulator, TraceLog, List[NetworkStack]]:
    """A ``side x side`` grid of stacks, root at the corner, started."""
    simulator = Simulator(seed=seed)
    log = TraceLog()
    medium = Medium(simulator, UnitDiskModel(radius_m=25.0), log)
    stack_config = config if config is not None else StackConfig(mac=mac)
    stacks = []
    node_id = 0
    for y in range(side):
        for x in range(side):
            stacks.append(
                NetworkStack(
                    simulator, medium, node_id,
                    (x * spacing_m, y * spacing_m),
                    stack_config, is_root=(node_id == 0), trace=log,
                )
            )
            node_id += 1
    for stack in stacks:
        stack.start()
    return simulator, log, stacks


def dashboard_run(side: int = 3, converge_s: float = 180.0,
                  traffic_s: float = 120.0, seed: int = 2018,
                  faults: bool = False, sink=None, **config):
    """The dashboard demo (``repro.app.report.DEMO``) on a side x side
    grid, ``config`` replacing ``SystemConfig`` fields: its ``DemoRun``."""
    import dataclasses

    from repro.deployment.topology import grid_topology
    from repro.app.report import DEMO, demo_faults

    scenario = dataclasses.replace(
        DEMO, topology=grid_topology(side), formation_s=converge_s,
        run_s=traffic_s, config=dataclasses.replace(DEMO.config, **config))
    if faults:
        scenario = dataclasses.replace(scenario, faults=demo_faults(scenario))

    def live(system) -> None:
        system.telemetry.sink = sink

    return scenario.run(
        seed, observe=None if sink is None else live).workloads[0]


class SuiteScenario:
    """A hand-written run in a ``Scenario``'s place for the sweep runner:
    ``fn(seed)`` returns a ``CheckerSuite``, and the bundle carries
    ``payload`` as its scenario.  Picklable when ``fn`` is module-level."""

    def __init__(self, fn, payload=None) -> None:
        self.fn = fn
        self.payload = payload

    def run(self, seed: int):
        import types
        return types.SimpleNamespace(checkers=self.fn(seed))

    def to_jsonable(self):
        return self.payload


def read_windows_jsonl(lines) -> List[TelemetryWindow]:
    """The telemetry windows in a stream of JSONL lines (what ``report
    --live`` and ``export_run`` write), blanks skipped."""
    return [TelemetryWindow.from_jsonable(json.loads(line))
            for line in lines if line.strip()]


def bump_dodag_version(root_router) -> None:
    """What an RFC 6550 global repair does at the root: a new DODAG
    version, advertised at once.  No run starts one; the tests use it to
    drive the version-adoption path every router's ``handle_dio`` keeps."""
    root_router.version += 1
    root_router.dao_table.clear()
    root_router.trickle.reset()


def reserved_slots(schedule) -> List[int]:
    """Slots a 6P transaction still holds in a ``TschSchedule`` — what the
    no-reservation-leak invariants of the TSCH tests read."""
    return sorted(schedule._reserved)


def eager_tsch():
    """``TschMac`` with nothing left to its listen plan.

    Every actionable cell ticks as a real event and every slotframe
    boundary runs ``_frame_boundary``, so radio-on time accumulates
    window by window and the MSF counters boundary by boundary: the
    reference the event-free engine must reproduce (as
    :class:`FullScanMedium` is for the indexed medium).  Test-side
    only — ``src/`` has one slot engine and no switch.
    """
    from repro.net.mac.tsch import TschMac

    class EagerTschMac(TschMac):
        _needs_tick = TschMac._cell_actionable

        def _next_eventful_frame(self):
            return self._frames_done

    return EagerTschMac


class ReplayAttacker:
    """Captures authenticated frames off the air and plays them back.

    Replay defeats *authentication alone*: the captured frame carries a
    valid MIC.  It is stopped by the authenticator's monotonic-sequence
    check, which ``tests/security/test_replay.py`` holds this adversary
    against.  Test-side only — no run replays frames (a run jams through
    ``FaultPlan.interference`` and injects through ``CommandInjector``).
    """

    def __init__(
        self,
        sim: Simulator,
        medium: Medium,
        node_id: int,
        position: Tuple[float, float],
        trace: Optional[TraceLog] = None,
    ) -> None:
        self.sim = sim
        self.trace = trace if trace is not None else TraceLog()
        self.radio = Radio(medium, node_id, position)
        self.radio.set_listening()
        self.captured: List[Any] = []
        self.replays = 0
        self._capture_filter: Optional[int] = None
        self.radio.on_receive = self._sniff

    def capture_for(self, victim: int) -> None:
        """Start recording DATA frames addressed to ``victim``."""
        self._capture_filter = victim

    def _sniff(self, phy_frame, rssi_dbm: float) -> None:
        frame = phy_frame.payload
        if not isinstance(frame, MacFrame) or frame.kind is not FrameKind.DATA:
            return
        if self._capture_filter is not None and frame.dst != self._capture_filter:
            return
        self.captured.append(frame)

    def replay(self, index: int = -1) -> bool:
        """Re-transmit a captured frame verbatim.  Returns False when
        nothing has been captured yet."""
        if not self.captured:
            return False
        frame = self.captured[index]
        self.replays += 1
        self.trace.emit(self.sim.now, "attack.replay",
                        node=self.radio.node_id, victim=frame.dst)
        if self.radio.state is RadioState.TX:
            return False
        self.radio.medium.transmit(self.radio, Frame(
            payload=frame, size_bytes=frame.size_bytes,
            channel=self.radio.channel, sender=self.radio.node_id,
        ))
        return True
