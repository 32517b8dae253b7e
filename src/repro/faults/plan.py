"""Fault schedules: a tuple of clauses, installed onto a live system.

A schedule is a ``Tuple[Clause, ...]`` — a scenario's ``faults`` — and
the one way to inject a fault.  A clause is a frozen dataclass in
absolute simulated time: a node crash (the border router included), a
geometric partition/heal, a link flap, a sensor fault, an interference
burst or a bounded stochastic crash/repair window.  It refuses a bad
value when it is made, naming the field.  Adding a kind is two parts: a
:class:`Clause` subclass in :data:`CLAUSES` and its
``FaultPlanRuntime._install_<kind>``.

- :func:`install` checks the clauses against the system (start times and
  node ids by :func:`check_schedule`, the rule a scenario applies when it
  is made; sensors, interferer ids, the link filter's owner) and returns
  the :class:`FaultPlanRuntime` that schedules them: the only user of
  ``DeviceNode.fail/recover``, ``Sensor.inject_fault/clear_fault``, the
  medium's link filter (a geometric cut composed with individually
  blocked links) and :class:`~repro.radio.interference.WifiInterferer`;
- :meth:`FaultPlanRuntime.declare_windows` feeds every clause's fault
  window to a fault-aware checker
  (:class:`~repro.checking.base.FaultWindowMixin`), so excursions during
  injected faults are expected and the same excursion outside one fails
  the run;
- the runtime emits ``fault.<kind>`` spans spanning each clause's
  active window plus ``fault.active`` / ``fault.injected`` metrics
  through :mod:`repro.obs`, so every trace shows *which fault was live*
  when a violation fired.

Determinism: clause times are static, and every stochastic clause draws
only from named kernel substreams — so a schedule's run is a pure
function of the simulation seed (pinned by the jobs=1 vs jobs=N
snapshot-identity test).
"""

from __future__ import annotations

import dataclasses
import math
import weakref
from dataclasses import dataclass
from typing import (Any, ClassVar, Dict, Iterable, List, Optional, Sequence,
                    Set, Tuple)

from repro.devices.sensors import SensorFault
from repro.radio.channels import WIFI_CHANNELS
from repro.radio.interference import WifiInterferer

#: Sentinel node id: resolved to the system's border router at install.
BORDER_ROUTER = -1
#: The mode a :class:`SensorClause` puts its sensor in, read when the
#: clause is installed (a test patches it).
SENSOR_FAULT = SensorFault.STUCK


def _end(start: float, after: Optional[float]) -> float:
    return math.inf if after is None else start + after


# ----------------------------------------------------------------------
# clauses
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Clause:
    """One timed fault.  A subclass names its ``kind`` — the codec's tag
    and its ``FaultPlanRuntime._install_<kind>`` — gives its (start,
    end) fault ``window()``, whose end is infinity for a fault never
    cleared, and refuses a bad value when made, naming the field: every
    ``*_s`` field is a time, finite and >= 0 (or None where that is the
    default: the fault then lasts to the end of the run)."""

    at_s: float

    kind: ClassVar[str]
    #: Fields naming a deployment node (see :func:`check_schedule`).
    node_fields: ClassVar[Tuple[str, ...]] = ()

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            optional = value is None and f.default is None
            if f.name.endswith("_s") and not optional:
                self._check(f.name, 0 <= value < math.inf, "finite and >= 0")

    def _check(self, name: str, ok: bool, rule: str) -> None:
        """Refuse field ``name`` unless ``ok`` (every comparison passed
        in is written so that NaN fails it)."""
        if not ok:
            raise ValueError(f"{type(self).__name__}.{name} must be {rule}, "
                             f"not {getattr(self, name)!r}")


@dataclass(frozen=True)
class CrashClause(Clause):
    """Crash-stop one node (``BORDER_ROUTER`` kills the root)."""

    node: int
    recover_after_s: Optional[float] = None

    kind: ClassVar[str] = "crash"
    node_fields: ClassVar[Tuple[str, ...]] = ("node",)

    def window(self) -> Tuple[float, float]:
        return self.at_s, _end(self.at_s, self.recover_after_s)


@dataclass(frozen=True)
class PartitionClause(Clause):
    """Apply a vertical geometric cut, optionally healing later."""

    cut_x: float
    heal_after_s: Optional[float] = None

    kind: ClassVar[str] = "partition"

    def __post_init__(self) -> None:
        super().__post_init__()
        self._check("cut_x", math.isfinite(self.cut_x), "finite")

    def window(self) -> Tuple[float, float]:
        return self.at_s, _end(self.at_s, self.heal_after_s)


@dataclass(frozen=True)
class LinkFlapClause(Clause):
    """Sever one link for ``down_s``, ``cycles`` times, ``up_s`` apart."""

    a: int
    b: int
    down_s: float
    cycles: int = 1
    up_s: float = 0.0

    kind: ClassVar[str] = "link_flap"
    node_fields: ClassVar[Tuple[str, ...]] = ("a", "b")

    def __post_init__(self) -> None:
        super().__post_init__()
        self._check("down_s", self.down_s > 0, "> 0")
        self._check("cycles", self.cycles >= 1, ">= 1")

    def window(self) -> Tuple[float, float]:
        period = self.down_s + self.up_s
        return self.at_s, self.at_s + self.cycles * period - self.up_s


@dataclass(frozen=True)
class SensorClause(Clause):
    """Put one sensor into the fault mode ``SENSOR_FAULT``."""

    node: int
    sensor: str
    clear_after_s: Optional[float] = None

    kind: ClassVar[str] = "sensor"
    node_fields: ClassVar[Tuple[str, ...]] = ("node",)

    def window(self) -> Tuple[float, float]:
        return self.at_s, _end(self.at_s, self.clear_after_s)


@dataclass(frozen=True)
class InterferenceClause(Clause):
    """A co-located wide-band interferer active for ``duration_s``."""

    duration_s: float
    position: Tuple[float, float]
    wifi_channel: int = 6
    duty_cycle: float = 0.30
    tx_power_dbm: float = 15.0
    #: Interferer node id (must not collide with deployment node ids).
    node_id: int = 950

    kind: ClassVar[str] = "interference"

    def __post_init__(self) -> None:
        super().__post_init__()
        self._check("position", all(map(math.isfinite, self.position)),
                    "finite")
        self._check("wifi_channel", self.wifi_channel in WIFI_CHANNELS,
                    "a Wi-Fi channel")
        self._check("duty_cycle", 0 < self.duty_cycle < 1, "in (0, 1)")
        self._check("tx_power_dbm", math.isfinite(self.tx_power_dbm),
                    "finite")

    def window(self) -> Tuple[float, float]:
        return self.at_s, self.at_s + self.duration_s


@dataclass(frozen=True)
class RandomCrashesClause(Clause):
    """A bounded stochastic crash/repair window (exponential MTBF/MTTR).

    At the window's end the process stops and any node still down is
    recovered, so the fault window genuinely bounds the disturbance.
    """

    duration_s: float
    mtbf_s: float = 4 * 3600.0
    mttr_s: float = 600.0

    kind: ClassVar[str] = "random_crashes"

    def __post_init__(self) -> None:
        super().__post_init__()
        for name in ("mtbf_s", "mttr_s"):
            self._check(name, getattr(self, name) > 0, "> 0")

    def window(self) -> Tuple[float, float]:
        return self.at_s, self.at_s + self.duration_s


#: ``kind`` → clause class: the scenario codec's kind table.
CLAUSES = {cls.kind: cls for cls in (
    CrashClause, PartitionClause, LinkFlapClause, SensorClause,
    InterferenceClause, RandomCrashesClause)}

#: Media whose link filter an installed schedule's link clauses own.
_OWNED_LINK_FILTERS: "weakref.WeakSet[Any]" = weakref.WeakSet()
_LINK_CLAUSES = (PartitionClause, LinkFlapClause)


# ----------------------------------------------------------------------
# checking and installing a schedule
# ----------------------------------------------------------------------
def check_schedule(clauses: Iterable[Clause], node_ids, now: float,
                   where: str = "clauses") -> None:
    """Refuse a clause that starts before ``now`` (a schedule, not a
    replay) or names a node not in ``node_ids`` — ``BORDER_ROUTER`` is a
    crash's only other node.  A scenario applies this rule when it is
    made, :func:`install` when it runs; the message names
    ``<where>[index].<field>``."""
    for index, clause in enumerate(clauses):
        if clause.at_s < now:
            raise ValueError(f"{where}[{index}].at_s={clause.at_s!r} is "
                             f"before the install instant t={now!r}")
        for name in clause.node_fields:
            node = getattr(clause, name)
            if node not in node_ids and not (
                    node == BORDER_ROUTER and isinstance(clause, CrashClause)):
                raise ValueError(f"{where}[{index}].{name}: unknown node "
                                 f"{node!r}")


def install(system, clauses: Sequence[Clause]) -> "FaultPlanRuntime":
    """Compile ``clauses`` onto a (typically converged) system.  Each is
    checked against it first — :func:`check_schedule` at the system's
    clock, a sensor its node lacks, an interferer id another radio
    holds, a link clause where another installed schedule owns the link
    filter — so a schedule that cannot run raises ``ValueError`` before
    anything is scheduled."""
    nodes = system.nodes
    check_schedule(clauses, nodes, system.sim.now)
    radio_ids = set(nodes) | set(system.medium.radios)
    for index, clause in enumerate(clauses):
        where = f"clauses[{index}]"
        if isinstance(clause, _LINK_CLAUSES) \
                and system.medium in _OWNED_LINK_FILTERS:
            raise ValueError(f"{where}: another installed fault schedule "
                             f"already owns this system's link filter")
        if isinstance(clause, SensorClause) \
                and clause.sensor not in nodes[clause.node].sensors:
            raise ValueError(f"{where}.sensor: node {clause.node} has no "
                             f"sensor {clause.sensor!r}")
        if isinstance(clause, InterferenceClause):
            if clause.node_id in radio_ids:
                raise ValueError(f"{where}.node_id: interferer id "
                                 f"{clause.node_id} is taken")
            radio_ids.add(clause.node_id)
    return FaultPlanRuntime(system, clauses)


# ----------------------------------------------------------------------
# the runtime
# ----------------------------------------------------------------------
class FaultPlanRuntime:
    """One schedule compiled onto one system: the only fault scheduler.

    Every clause is scheduled here, straight onto the primitives, and
    every injected fault is counted in ``fault.injected{kind,...}``
    before its trace record is emitted.  The runtime owns the medium's
    link filter: one predicate composing the live geometric cut
    (``sides``) with the individually blocked links, so partitions and
    link flaps overlay — within one schedule: :func:`install` refuses
    link clauses on a system whose filter another schedule owns.  It
    also manages the observability surface: one ``fault.<kind>`` span
    per clause held open across its active window (stochastic crashes
    inside a ``random_crashes`` window land as child events), and the
    ``fault.active`` gauge tracking how many clauses are live.
    """

    def __init__(self, system, clauses: Sequence[Clause]) -> None:
        self.clauses = tuple(clauses)
        self.system = system
        self.sim = system.sim
        self.trace = system.trace
        #: Node → side of the live partition (0: x < cut_x), or None —
        #: what :func:`~repro.checking.availability.service_availability`
        #: reads.
        self.sides: Optional[Dict[int, int]] = None
        self._blocked: Set[Tuple[int, int]] = set()
        self.interferers: List[WifiInterferer] = []
        self.active_clauses = 0
        self._spans: Dict[int, Any] = {}
        if any(isinstance(c, _LINK_CLAUSES) for c in self.clauses):
            _OWNED_LINK_FILTERS.add(system.medium)
        for index, clause in enumerate(self.clauses):
            getattr(self, f"_install_{clause.kind}")(index, clause)

    def declare_windows(self, checker, grace_s: float) -> None:
        """Feed every clause's fault window, plus ``grace_s``, to a
        fault-aware checker (:class:`~repro.checking.base.FaultWindowMixin`)."""
        for clause in self.clauses:
            checker.declare_fault_window(*clause.window(), grace_s=grace_s)

    # -- shared bookkeeping ---------------------------------------------
    def _count(self, kind: str, **labels: Any) -> None:
        obs = self.trace.obs
        if obs is not None:
            obs.registry.inc("fault.injected", kind=kind, **labels)

    def _inject(self, kind: str, node: int, **detail: Any) -> None:
        """Count, then trace, one fault injected at ``node`` now."""
        self._count(kind, node=node)
        self.trace.emit(self.sim.now, f"fault.{kind}", node=node, **detail)

    def _begin(self, index: int, clause: Clause, **data: Any) -> None:
        self.active_clauses += 1
        obs = self.trace.obs
        if obs is None:
            return
        obs.registry.set("fault.active", self.active_clauses)
        self._spans[index] = obs.spans.start(
            None, f"fault.{clause.kind}", node=data.pop("node", None),
            t=self.sim.now, **data)

    def _end(self, index: int) -> None:
        self.active_clauses -= 1
        obs = self.trace.obs
        if obs is None:
            return
        obs.registry.set("fault.active", self.active_clauses)
        obs.spans.finish(self._spans.get(index), self.sim.now)

    def _child_event(self, index: int, category: str, node: int) -> None:
        """A stochastic crash or repair, as an event of its clause span."""
        obs = self.trace.obs
        if obs is not None:
            obs.spans.event(self._spans.get(index), category, node=node,
                            t=self.sim.now)

    def _window_events(self, index: int, clause: Clause,
                       **data: Any) -> None:
        start, end = clause.window()
        self.sim.schedule_at(start, lambda: self._begin(index, clause, **data))
        if end != math.inf:
            self.sim.schedule_at(end, lambda: self._end(index))

    # -- per-clause installers -----------------------------------------
    # A clause's effect is scheduled before its window events, and a
    # recovery is armed from the fault instant (``schedule(after)``),
    # so at a shared instant the window closes before the recovery runs.
    def _install_crash(self, index: int, clause: CrashClause) -> None:
        node_id = (self.system.topology.root_id
                   if clause.node == BORDER_ROUTER else clause.node)
        node = self.system.nodes[node_id]

        def crash() -> None:
            node.fail()
            self._inject("crash", node_id)
            if clause.recover_after_s is not None:
                self.sim.schedule(clause.recover_after_s, recover)

        def recover() -> None:
            node.recover()
            self._inject("recover", node_id)

        self.sim.schedule_at(clause.at_s, crash)
        self._window_events(index, clause, node=node_id)

    # -- the link filter: the geometric cut plus blocked pairs -----------
    def _refresh_filter(self) -> None:
        sides, blocked = self.sides, self._blocked
        if sides is None and not blocked:
            self.system.medium.set_link_filter(None)
            return

        def link_blocked(a: int, b: int) -> bool:
            if sides is not None and sides.get(a) != sides.get(b):
                return True
            return ((a, b) if a <= b else (b, a)) in blocked

        self.system.medium.set_link_filter(link_blocked)

    def _partition(self, cut_x: float) -> None:
        self.sides = {node_id: 0 if radio.position[0] < cut_x else 1
                      for node_id, radio in self.system.medium.radios.items()}
        self._refresh_filter()
        self._count("partition")
        left = sum(1 for side in self.sides.values() if side == 0)
        self.trace.emit(self.sim.now, "partition.applied", node=None,
                        left=left, right=len(self.sides) - left)

    def _heal(self) -> None:
        """Restore cross-cut connectivity (blocked links stay blocked)."""
        self.sides = None
        self._refresh_filter()
        self.trace.emit(self.sim.now, "partition.healed", node=None)

    def _set_link(self, pair: Tuple[int, int], down: bool) -> None:
        """Block (``down``) or restore one link; no-op if it already is."""
        if (pair in self._blocked) == down:
            return
        if down:
            self._blocked.add(pair)
            self._count("link_down")
        else:
            self._blocked.discard(pair)
        self._refresh_filter()
        self.trace.emit(self.sim.now,
                        "partition.link_down" if down else "partition.link_up",
                        node=None, a=pair[0], b=pair[1])

    def _install_partition(self, index: int, clause: PartitionClause) -> None:
        self.sim.schedule_at(clause.at_s, lambda: self._partition(clause.cut_x))
        if clause.heal_after_s is not None:
            self.sim.schedule_at(clause.at_s + clause.heal_after_s, self._heal)
        self._window_events(index, clause, cut_x=clause.cut_x)

    def _install_link_flap(self, index: int, clause: LinkFlapClause) -> None:
        pair = (min(clause.a, clause.b), max(clause.a, clause.b))
        for cycle in range(clause.cycles):
            down_at = clause.at_s + cycle * (clause.down_s + clause.up_s)
            self.sim.schedule_at(down_at, lambda: self._set_link(pair, True))
            self.sim.schedule_at(down_at + clause.down_s,
                                 lambda: self._set_link(pair, False))
        self._window_events(index, clause, a=clause.a, b=clause.b,
                            cycles=clause.cycles)

    def _install_sensor(self, index: int, clause: SensorClause) -> None:
        node = self.system.nodes[clause.node]
        mode = SENSOR_FAULT

        def inject() -> None:
            node.sensors[clause.sensor].inject_fault(mode)
            self._inject("sensor", clause.node, sensor=clause.sensor,
                         mode=mode.value)
            if clause.clear_after_s is not None:
                self.sim.schedule(clause.clear_after_s, clear)

        def clear() -> None:
            node.sensors[clause.sensor].clear_fault()
            self._inject("sensor_clear", clause.node, sensor=clause.sensor)

        self.sim.schedule_at(clause.at_s, inject)
        self._window_events(index, clause, node=clause.node,
                            sensor=clause.sensor, mode=mode.value)

    def _install_interference(self, index: int,
                              clause: InterferenceClause) -> None:
        def start() -> None:
            interferer = WifiInterferer(self.system.medium, clause)
            self.interferers.append(interferer)
            interferer.start()
            self._count("interference")
            self.trace.emit(self.sim.now, "fault.interference", node=None,
                            wifi_channel=clause.wifi_channel,
                            duty=clause.duty_cycle)
            self.sim.schedule(clause.duration_s, interferer.stop)

        self.sim.schedule_at(clause.at_s, start)
        self._window_events(index, clause, wifi_channel=clause.wifi_channel,
                            duty=clause.duty_cycle)

    def _install_random_crashes(self, index: int,
                                clause: RandomCrashesClause) -> None:
        """Exponential MTBF/MTTR crash/repair cycles over the fleet, the
        root spared, drawn from the ``"faults.process"`` substream in
        node order; at the window's end the cycles stop and every node
        still down is repaired."""
        rng = self.sim.substream("faults.process")
        nodes = self.system.nodes
        down: Set[int] = set()
        running = False

        def arm(node) -> None:
            delay = rng.expovariate(1.0 / clause.mtbf_s)
            self.sim.schedule(delay, lambda: fail(node))

        def fail(node) -> None:
            if not running or not node.alive:
                return
            node.fail()
            down.add(node.node_id)
            self._inject("random_crash", node.node_id)
            self._child_event(index, "fault.random_crash", node.node_id)
            repair_delay = rng.expovariate(1.0 / clause.mttr_s)
            self.sim.schedule(repair_delay, lambda: repair(node))

        def repaired(node) -> None:
            node.recover()
            down.discard(node.node_id)
            self.trace.emit(self.sim.now, "fault.random_repair",
                            node=node.node_id)
            self._child_event(index, "fault.random_repair", node.node_id)

        def repair(node) -> None:
            if running:
                repaired(node)
                arm(node)

        def start() -> None:
            nonlocal running
            running = True
            for node in nodes.values():
                if not node.is_root:
                    arm(node)

        def drain() -> None:
            nonlocal running
            running = False
            for node_id in sorted(down):
                repaired(nodes[node_id])

        self.sim.schedule_at(clause.at_s, start)
        self.sim.schedule_at(clause.at_s + clause.duration_s, drain)
        self._window_events(index, clause, mtbf_s=clause.mtbf_s,
                            mttr_s=clause.mttr_s)
