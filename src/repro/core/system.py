"""IIoTSystem: Fig. 1 of the paper, assembled and runnable.

The three logical tiers:

- **sensing and actuation** — :class:`~repro.devices.node.DeviceNode`
  instances on a shared medium, built from a
  :class:`~repro.deployment.topology.Topology`;
- **application logic** — the border router's services: the middleware
  :class:`~repro.middleware.gateway.Gateway`, aggregation roots, remote
  controllers;
- **data storage** — an in-memory time-series store fed by the
  application tier (a real deployment would put a historian here; the
  substitution preserves the interface).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.deployment.topology import Topology
from repro.devices.node import DeviceNode
from repro.devices.platform import CLASS_1_MOTE, CLASS_2_GATEWAY
from repro.middleware.gateway import Gateway
from repro.net.rpl.dodag import RplState
from repro.net.stack import StackConfig
from repro.radio.medium import Medium
from repro.radio.propagation import LinkQualityModel, UnitDiskModel
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceLog


@dataclass(frozen=True)
class SystemConfig:
    """How to materialize a topology into a running system."""

    stack: StackConfig = field(default_factory=StackConfig)
    #: Keep a bounded tail of recent trace records (repro.sim.trace.
    #: TAIL); counters and subscribers work either way.  Only the layered
    #: benchmark still sets it: a failing sweep seed is replayed, not
    #: recorded (``python -m repro replay``).
    trace_enabled: bool = False
    #: Attach the default runtime invariant checkers (repro.checking).
    #: Off by default so benchmarks pay nothing; checkers are passive
    #: observers, so enabling them does not change simulation outcomes.
    invariant_checking: bool = False
    #: Attach the observability layer (repro.obs): metrics registry +
    #: packet-lifecycle span tracing.  Off by default; like checking it
    #: observes without perturbing event order or RNG state.
    observability: bool = False
    #: Fraction of span *traces* to store (1.0 = everything).  Sampling
    #: is deterministic and derived from the run seed — never
    #: wall-clock — and only thins stored spans: metrics stay exact and
    #: the simulation is never perturbed.
    span_sample_rate: float = 1.0
    #: Windowed telemetry scrape period in sim seconds (repro.obs.
    #: timeseries).  None (the default) attaches no engine and keeps
    #: the zero-diff guarantee of uninstrumented runs; a value requires
    #: ``observability=True`` and *does* schedule simulator events (the
    #: scrape timer), like NodeHealthSampler.
    telemetry_interval_s: Optional[float] = None

    def __post_init__(self) -> None:
        # Refused when made, not when run: a config that constructs runs.
        # The bounds live beside the classes they protect; their modules
        # are imported only for a value off its (valid) default, so a
        # plain config loads no repro.obs module.
        if self.span_sample_rate != 1.0:
            from repro.obs.spans import check_sample_rate
            check_sample_rate(self.span_sample_rate,
                              "SystemConfig.span_sample_rate")
        interval = self.telemetry_interval_s
        if interval is not None:
            from repro.obs.timeseries import check_interval
            check_interval(interval, "SystemConfig.telemetry_interval_s")
        if interval is not None and not self.observability:
            raise ValueError(
                "SystemConfig.telemetry_interval_s requires "
                "observability=True: the engine scrapes the obs registry")


class TimeSeriesStore:
    """The data-storage tier: named (time, value) series."""

    def __init__(self) -> None:
        self.series: Dict[str, List[Tuple[float, float]]] = {}

    def append(self, name: str, time: float, value: float) -> None:
        """Record one point."""
        self.series.setdefault(name, []).append((time, value))

    def query(self, name: str, since: float = float("-inf"),
              until: float = float("inf")) -> List[Tuple[float, float]]:
        """Points of one series inside a time window."""
        return [
            (t, v) for t, v in self.series.get(name, [])
            if since <= t <= until
        ]


class IIoTSystem:
    """A complete industrial IoT system over a simulated deployment."""

    def __init__(
        self,
        sim: Simulator,
        medium: Medium,
        trace: TraceLog,
        topology: Topology,
        config: SystemConfig,
    ) -> None:
        self.sim = sim
        self.medium = medium
        self.trace = trace
        self.topology = topology
        self.config = config
        self.nodes: Dict[int, DeviceNode] = {}
        self.storage = TimeSeriesStore()
        self._gateway: Optional[Gateway] = None
        self._activated: set = set()
        self.obs = None
        self.telemetry = None
        #: Run-time drivers of the workloads a
        #: :class:`~repro.core.scenario.Scenario` attached, in its order.
        self.workloads: List = []
        if config.observability:
            # Imported lazily, mirroring the checking import below.
            from repro.obs import Observability
            self.obs = Observability(
                span_sample_rate=config.span_sample_rate,
                span_seed=sim.seed,
            )
            self.obs.attach(trace)
            if config.telemetry_interval_s is not None:
                from repro.obs.timeseries import TelemetryEngine
                self.telemetry = TelemetryEngine(
                    sim, self.obs.registry,
                    interval_s=config.telemetry_interval_s)
                self.obs.telemetry = self.telemetry
        self._build_nodes()
        self.checkers = None
        if config.invariant_checking:
            # Imported lazily: checking depends on this module's peers.
            from repro.checking import default_suite
            self.checkers = default_suite(self)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        topology: Topology,
        config: Optional[SystemConfig] = None,
        link_model: Optional[LinkQualityModel] = None,
        seed: int = 0,
    ) -> "IIoTSystem":
        """Materialize a topology into an (unstarted) system."""
        config = config if config is not None else SystemConfig()
        sim = Simulator(seed=seed)
        trace = TraceLog(enabled=config.trace_enabled)
        model = link_model if link_model is not None else UnitDiskModel(radius_m=25.0)
        medium = Medium(sim, model, trace)
        return cls(sim, medium, trace, topology, config)

    def _build_nodes(self) -> None:
        for node_id in self.topology.node_ids():
            is_root = node_id == self.topology.root_id
            self.nodes[node_id] = DeviceNode(
                self.medium, node_id,
                self.topology.positions[node_id],
                stack_config=self.config.stack,
                platform=CLASS_2_GATEWAY if is_root else CLASS_1_MOTE,
                is_root=is_root,
            )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def root(self) -> DeviceNode:
        """The border router."""
        return self.nodes[self.topology.root_id]

    def start(self, node_ids: Optional[List[int]] = None) -> None:
        """Activate nodes (all, or a rollout stage's subset).

        The root activates with the first call regardless of subset —
        nothing joins a DODAG without its root.
        """
        targets = node_ids if node_ids is not None else self.topology.node_ids()
        if self.telemetry is not None:
            self.telemetry.start()  # idempotent; first window one interval in
        if self.topology.root_id not in self._activated:
            self.root.start()
            self._activated.add(self.topology.root_id)
        for node_id in targets:
            if node_id in self._activated:
                continue
            self.nodes[node_id].start()
            self._activated.add(node_id)

    def activate(self, node_id: int) -> None:
        """Activate one node (rollout callback form)."""
        self.start([node_id])

    def run(self, duration_s: float) -> None:
        """Advance simulated time by ``duration_s``."""
        self.sim.run(until=self.sim.now + duration_s)

    # ------------------------------------------------------------------
    # application-logic tier
    # ------------------------------------------------------------------
    @property
    def gateway(self) -> Gateway:
        """The middleware gateway (created on first access)."""
        if self._gateway is None:
            self._gateway = Gateway(self.root.stack)
        return self._gateway

    def add_field_sensors(
        self, name: str, phenomenon, skip_root: bool = True
    ) -> None:
        """Attach one phenomenon-observing sensor to every device."""
        for node in self.nodes.values():
            if skip_root and node.is_root:
                continue
            node.add_sensor(name, phenomenon)

    # ------------------------------------------------------------------
    # health introspection
    # ------------------------------------------------------------------
    def joined_fraction(self) -> float:
        """Fraction of activated non-root nodes joined to the DODAG."""
        members = [
            self.nodes[nid] for nid in self._activated
            if nid != self.topology.root_id
        ]
        if not members:
            return 1.0
        joined = sum(
            1 for node in members
            if node.stack.rpl.state is RplState.JOINED
        )
        return joined / len(members)

    def converged(self, threshold: float = 1.0) -> bool:
        return self.joined_fraction() >= threshold

    def active_nodes(self) -> List[DeviceNode]:
        return [self.nodes[nid] for nid in sorted(self._activated)]
