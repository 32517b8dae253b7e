"""Declarative fault plans: composable, seed-deterministic fault schedules.

A :class:`FaultPlan` is the one way to inject a fault: every experiment,
example and the demo crash nodes, cut links, fault sensors and start
interferers through one.  A plan is a list of *clauses* — timed node
crashes (including the border router), geometric partition/heal cycles,
per-link flaps, sensor stuck/drift faults, interference bursts, and
bounded stochastic crash/repair windows — expressed in absolute
simulated time.  The same plan serves three consumers at once:

- :meth:`FaultPlan.install` checks the clauses against the system and
  returns the :class:`FaultPlanRuntime` that schedules every one of
  them.  The runtime owns the primitives' use: ``DeviceNode.fail/
  recover``, ``Sensor.inject_fault/clear_fault``, the medium's link
  filter (a geometric cut composed with individually blocked links)
  and :class:`~repro.radio.interference.WifiInterferer`;
- :meth:`FaultPlan.declare_windows` feeds every clause's fault window to
  a fault-aware checker
  (:class:`~repro.checking.base.FaultWindowMixin`), so excursions during
  injected faults are expected and the same excursion outside one fails
  the run;
- the runtime emits ``fault.<kind>`` spans spanning each clause's
  active window plus ``fault.active`` / ``fault.injected`` metrics
  through :mod:`repro.obs`, so every trace shows *which fault was live*
  when a violation fired.

Determinism: clause times are static, and every stochastic clause draws
only from named kernel substreams — so a plan run is a pure function of
the simulation seed (pinned by the jobs=1 vs jobs=N snapshot-identity
test).
"""

from __future__ import annotations

import dataclasses
import math
import weakref
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.devices.sensors import SensorFault
from repro.radio.channels import WIFI_CHANNELS
from repro.radio.interference import WifiInterferer

#: Sentinel node id: resolved to the system's border router at install.
BORDER_ROUTER = -1


# ----------------------------------------------------------------------
# clauses
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CrashClause:
    """Crash-stop one node (``BORDER_ROUTER`` kills the root)."""

    at_s: float
    node: int
    recover_after_s: Optional[float] = None

    kind = "crash"

    def window(self) -> Tuple[float, float]:
        end = math.inf if self.recover_after_s is None \
            else self.at_s + self.recover_after_s
        return self.at_s, end


@dataclass(frozen=True)
class PartitionClause:
    """Apply a vertical geometric cut, optionally healing later."""

    at_s: float
    cut_x: float
    heal_after_s: Optional[float] = None

    kind = "partition"

    def window(self) -> Tuple[float, float]:
        end = math.inf if self.heal_after_s is None \
            else self.at_s + self.heal_after_s
        return self.at_s, end


@dataclass(frozen=True)
class LinkFlapClause:
    """Sever one link for ``down_s``, ``cycles`` times, ``up_s`` apart."""

    at_s: float
    a: int
    b: int
    down_s: float
    cycles: int = 1
    up_s: float = 0.0

    kind = "link_flap"

    def window(self) -> Tuple[float, float]:
        period = self.down_s + self.up_s
        return self.at_s, self.at_s + self.cycles * period - self.up_s


@dataclass(frozen=True)
class SensorClause:
    """Put one sensor into a fault mode (stuck, drift, offset, dead)."""

    at_s: float
    node: int
    sensor: str
    mode: SensorFault = SensorFault.STUCK
    clear_after_s: Optional[float] = None

    kind = "sensor"

    def window(self) -> Tuple[float, float]:
        end = math.inf if self.clear_after_s is None \
            else self.at_s + self.clear_after_s
        return self.at_s, end


@dataclass(frozen=True)
class InterferenceClause:
    """A co-located wide-band interferer active for ``duration_s``."""

    at_s: float
    duration_s: float
    position: Tuple[float, float]
    wifi_channel: int = 6
    duty_cycle: float = 0.30
    tx_power_dbm: float = 15.0
    #: Interferer node id (must not collide with deployment node ids).
    node_id: int = 950

    kind = "interference"

    def window(self) -> Tuple[float, float]:
        return self.at_s, self.at_s + self.duration_s


@dataclass(frozen=True)
class RandomCrashesClause:
    """A bounded stochastic crash/repair window (exponential MTBF/MTTR).

    At the window's end the process stops and any node still down is
    recovered, so the fault window genuinely bounds the disturbance.
    """

    at_s: float
    duration_s: float
    mtbf_s: float = 4 * 3600.0
    mttr_s: float = 600.0
    spare_root: bool = True

    kind = "random_crashes"

    def window(self) -> Tuple[float, float]:
        return self.at_s, self.at_s + self.duration_s


Clause = Any  # any of the clause dataclasses above

#: ``kind`` → clause class, for the JSON round trip.
_CLAUSE_KINDS = {
    cls.kind: cls for cls in (
        CrashClause, PartitionClause, LinkFlapClause, SensorClause,
        InterferenceClause, RandomCrashesClause)
}

#: Clause class → its fields naming a deployment node (checked at install).
_NODE_FIELDS = {CrashClause: ("node",), SensorClause: ("node",),
                LinkFlapClause: ("a", "b")}

#: Media whose link filter an installed plan's link clauses own.
_OWNED_LINK_FILTERS: "weakref.WeakSet[Any]" = weakref.WeakSet()
_LINK_CLAUSES = (PartitionClause, LinkFlapClause)


def _clause_to_jsonable(clause: Clause) -> Dict[str, Any]:
    payload: Dict[str, Any] = {"kind": clause.kind}
    for f in dataclasses.fields(clause):
        value = getattr(clause, f.name)
        if isinstance(value, SensorFault):
            value = value.value
        elif isinstance(value, tuple):
            value = list(value)
        payload[f.name] = value
    return payload


def _json_type(value: Any, *types: type) -> Any:
    """``value`` if its type is exactly one of ``types`` (so a JSON
    ``true`` is not an integer)."""
    if type(value) not in types:
        names = "/".join(t.__name__ for t in types)
        raise ValueError(f"expected {names}, got {value!r}")
    return value


def _number(value: Any) -> float:
    return float(_json_type(value, int, float))


def _point(value: Any) -> Tuple[float, float]:
    if type(value) is not list or len(value) != 2:
        raise ValueError(f"expected an [x, y] pair, got {value!r}")
    return _number(value[0]), _number(value[1])


#: Field name → JSON decoder; every field not named here is a number.
_FIELD_DECODERS = {
    **dict.fromkeys(("node", "a", "b", "cycles", "wifi_channel", "node_id"),
                    lambda value: _json_type(value, int)),
    "sensor": lambda value: _json_type(value, str),
    "spare_root": lambda value: _json_type(value, bool),
    "mode": SensorFault,
    "position": _point,
}


def _clause_from_jsonable(payload: Any) -> Clause:
    """Decode one clause; anything malformed raises ``ValueError``."""
    if not isinstance(payload, dict):
        raise ValueError(f"a clause is an object, not {payload!r}")
    kind = payload.get("kind")
    cls = _CLAUSE_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown fault clause kind {kind!r}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(payload) - set(fields) - {"kind"}
    if unknown:
        raise ValueError(f"{kind}: unknown field(s) {sorted(map(str, unknown))}")
    kwargs: Dict[str, Any] = {}
    for name, f in fields.items():
        if name not in payload:
            if f.default is dataclasses.MISSING:
                raise ValueError(f"{kind}: missing field {name!r}")
            continue
        value = payload[name]
        if value is None and f.default is None:
            kwargs[name] = None
            continue
        try:
            kwargs[name] = _FIELD_DECODERS.get(name, _number)(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{kind}.{name}: {exc}") from None
    return cls(**kwargs)


# ----------------------------------------------------------------------
# the plan
# ----------------------------------------------------------------------
class FaultPlan:
    """An ordered, composable schedule of fault clauses.

    Builder methods append a clause and return the plan, so schedules
    read as a chain::

        plan = (FaultPlan()
                .crash(at_s=1800.0, node=5, recover_after_s=600.0)
                .partition(at_s=4800.0, cut_x=30.0, heal_after_s=900.0))

    Times are absolute simulated seconds: the scenario that owns the
    timeline builds the plan against it.
    """

    def __init__(self, clauses: Iterable[Clause] = ()) -> None:
        self.clauses: List[Clause] = list(clauses)

    # -- builders ------------------------------------------------------
    def add(self, clause: Clause) -> "FaultPlan":
        self.clauses.append(clause)
        return self

    def crash(self, at_s: float, node: int,
              recover_after_s: Optional[float] = None) -> "FaultPlan":
        return self.add(CrashClause(at_s, node, recover_after_s))

    def kill_border_router(self, at_s: float,
                           recover_after_s: Optional[float] = None
                           ) -> "FaultPlan":
        return self.add(CrashClause(at_s, BORDER_ROUTER, recover_after_s))

    def partition(self, at_s: float, cut_x: float,
                  heal_after_s: Optional[float] = None) -> "FaultPlan":
        return self.add(PartitionClause(at_s, cut_x, heal_after_s))

    def flap_link(self, at_s: float, a: int, b: int, down_s: float,
                  cycles: int = 1, up_s: float = 0.0) -> "FaultPlan":
        return self.add(LinkFlapClause(at_s, a, b, down_s, cycles, up_s))

    def sensor_fault(self, at_s: float, node: int, sensor: str,
                     mode: SensorFault = SensorFault.STUCK,
                     clear_after_s: Optional[float] = None) -> "FaultPlan":
        return self.add(SensorClause(at_s, node, sensor, mode, clear_after_s))

    def interference(self, at_s: float, duration_s: float,
                     position: Tuple[float, float], wifi_channel: int = 6,
                     duty_cycle: float = 0.30,
                     node_id: int = 950) -> "FaultPlan":
        return self.add(InterferenceClause(
            at_s, duration_s, position, wifi_channel=wifi_channel,
            duty_cycle=duty_cycle, node_id=node_id))

    def random_crashes(self, at_s: float, duration_s: float,
                       mtbf_s: float = 4 * 3600.0, mttr_s: float = 600.0,
                       spare_root: bool = True) -> "FaultPlan":
        return self.add(RandomCrashesClause(at_s, duration_s, mtbf_s,
                                            mttr_s, spare_root))

    def extend(self, other: "FaultPlan") -> "FaultPlan":
        """Compose another plan's clauses into this one."""
        self.clauses.extend(other.clauses)
        return self

    # -- declarative views ---------------------------------------------
    def windows(self) -> List[Tuple[float, float]]:
        """Every clause's (start, end) fault window, in clause order.

        Open-ended clauses (no recovery/heal/clear) end at infinity.
        """
        return [clause.window() for clause in self.clauses]

    def declare_windows(self, checker, grace_s: float = 0.0) -> None:
        """Feed every clause window to a fault-aware checker
        (:class:`~repro.checking.base.FaultWindowMixin`)."""
        for start, end in self.windows():
            checker.declare_fault_window(start, end, grace_s=grace_s)

    def validate(self) -> None:
        """Reject a malformed schedule before anything runs (the
        comparisons are written so that NaN fails them)."""
        for index, clause in enumerate(self.clauses):
            where = f"fault plan clause {index} ({clause.kind})"
            start, end = clause.window()
            if not 0 <= start < math.inf:
                raise ValueError(f"{where} must start at a finite t >= 0, "
                                 f"not {start!r}")
            if not end >= start:
                raise ValueError(f"{where} ends before it starts")
            if isinstance(clause, RandomCrashesClause) and not (
                    0 < clause.mtbf_s < math.inf
                    and 0 < clause.mttr_s < math.inf):
                raise ValueError(f"{where}: mtbf_s and mttr_s must be "
                                 f"positive and finite")
            if isinstance(clause, InterferenceClause):
                if not 0 < clause.duty_cycle < 1:
                    raise ValueError(f"{where}: duty_cycle must be in "
                                     f"(0, 1), not {clause.duty_cycle!r}")
                if clause.wifi_channel not in WIFI_CHANNELS:
                    raise ValueError(f"{where}: invalid Wi-Fi channel "
                                     f"{clause.wifi_channel!r}")
                if not all(map(math.isfinite, (*clause.position,
                                               clause.tx_power_dbm))):
                    raise ValueError(f"{where}: position {clause.position!r} "
                                     f"and tx_power_dbm must be finite")

    # -- serialization (scenarios, repro bundles) ----------------------
    def to_jsonable(self) -> Dict[str, Any]:
        """Plain-JSON shape; clauses keep plan order."""
        return {
            "format": "repro.faultplan/1",
            "clauses": [_clause_to_jsonable(c) for c in self.clauses],
        }

    @classmethod
    def from_jsonable(cls, payload: Any) -> "FaultPlan":
        """Decode :meth:`to_jsonable`'s shape into a validated plan.

        Every malformed payload — wrong shape, unknown kind or field, a
        missing or mistyped field, an invalid schedule — raises
        ``ValueError``, naming the offending clause's index.
        """
        if not isinstance(payload, dict) \
                or payload.get("format") != "repro.faultplan/1":
            raise ValueError(f"not a fault plan: {payload!r:.80}")
        clauses = payload.get("clauses", [])
        unknown = set(payload) - {"format", "clauses"}
        if unknown or not isinstance(clauses, list):
            raise ValueError("a fault plan is {format, clauses: [...]}")
        plan = cls()
        for index, clause in enumerate(clauses):
            try:
                plan.add(_clause_from_jsonable(clause))
            except ValueError as exc:
                raise ValueError(f"fault plan clause {index}: {exc}") from None
        plan.validate()
        return plan

    # -- compilation ---------------------------------------------------
    def install(self, system) -> "FaultPlanRuntime":
        """Compile onto a (typically converged) system.  Every clause is
        checked against it first — a time already in the past (the plan
        is a schedule, not a replay), an unknown node or sensor, an
        interferer id another radio holds, a link clause where another
        plan owns the link filter — so a plan that cannot run raises
        ``ValueError`` before anything is scheduled."""
        self.validate()
        nodes, now = system.nodes, system.sim.now
        radio_ids = set(nodes) | set(system.medium.radios)
        for index, clause in enumerate(self.clauses):
            where = f"fault plan clause {index} ({clause.kind})"
            if isinstance(clause, _LINK_CLAUSES) \
                    and system.medium in _OWNED_LINK_FILTERS:
                raise ValueError(f"{where}: another installed fault plan "
                                 f"already owns this system's link filter")
            if clause.at_s < now:
                raise ValueError(f"{where} at t={clause.at_s:g} is in the "
                                 f"past (now={now:g})")
            for node in (getattr(clause, name)
                         for name in _NODE_FIELDS.get(type(clause), ())):
                if node not in nodes and not (
                        clause.kind == "crash" and node == BORDER_ROUTER):
                    raise ValueError(f"{where}: unknown node {node!r}")
            if isinstance(clause, SensorClause) \
                    and clause.sensor not in nodes[clause.node].sensors:
                raise ValueError(f"{where}: node {clause.node} has no "
                                 f"sensor {clause.sensor!r}")
            if isinstance(clause, InterferenceClause):
                if clause.node_id in radio_ids:
                    raise ValueError(f"{where}: interferer id "
                                     f"{clause.node_id} is taken")
                radio_ids.add(clause.node_id)
        return FaultPlanRuntime(self, system)

    def __len__(self) -> int:
        return len(self.clauses)


# ----------------------------------------------------------------------
# the runtime
# ----------------------------------------------------------------------
class FaultPlanRuntime:
    """One plan compiled onto one system: the only fault scheduler.

    Every clause is scheduled here, straight onto the primitives, and
    every injected fault is counted in ``fault.injected{kind,...}``
    before its trace record is emitted.  The runtime owns the medium's
    link filter: one predicate composing the live geometric cut
    (``sides``) with the individually blocked links, so partitions and
    link flaps overlay — within one plan: ``install`` refuses link
    clauses on a system whose filter another plan owns.  It also
    manages the observability surface: one ``fault.<kind>`` span per
    clause held open across its active window (stochastic crashes
    inside a ``random_crashes`` window land as child events), and the
    ``fault.active`` gauge tracking how many clauses are live.
    """

    def __init__(self, plan: FaultPlan, system) -> None:
        self.plan = plan
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
        if any(isinstance(c, _LINK_CLAUSES) for c in plan.clauses):
            _OWNED_LINK_FILTERS.add(system.medium)
        for index, clause in enumerate(plan.clauses):
            getattr(self, f"_install_{clause.kind}")(index, clause)

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

        def inject() -> None:
            node.sensors[clause.sensor].inject_fault(clause.mode)
            self._inject("sensor", clause.node, sensor=clause.sensor,
                         mode=clause.mode.value)
            if clause.clear_after_s is not None:
                self.sim.schedule(clause.clear_after_s, clear)

        def clear() -> None:
            node.sensors[clause.sensor].clear_fault()
            self._inject("sensor_clear", clause.node, sensor=clause.sensor)

        self.sim.schedule_at(clause.at_s, inject)
        self._window_events(index, clause, node=clause.node,
                            sensor=clause.sensor, mode=clause.mode.value)

    def _install_interference(self, index: int,
                              clause: InterferenceClause) -> None:
        def start() -> None:
            interferer = WifiInterferer(self.sim, self.system.medium, clause)
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
        """Exponential MTBF/MTTR crash/repair cycles over the fleet
        (root spared unless ``spare_root=False``), drawn from the
        ``"faults.process"`` substream in node order; at the window's
        end the cycles stop and every node still down is repaired."""
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
                if not (clause.spare_root and node.is_root):
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
