"""One run description: a :class:`Scenario` is data.

A scenario is one frozen, hashable value holding everything a run is
made of (DESIGN.md, "Scenarios"): ``build(seed)`` returns the formed
system with its workloads started and its fault schedule installed, and
``run(seed)`` runs it ``run_s`` more; one that cannot run is refused
when made, naming the field.  Its codec, ``repro.scenario/2`` (fault
clauses included), keeps one contract — a malformed payload raises
``ValueError`` naming its path and nothing else, and a round trip is the
identity; :attr:`Scenario.content_hash` is the sha256 of the canonical
JSON.  ``import repro`` does not load this module.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import typing
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.core.system import IIoTSystem, SystemConfig
from repro.core.workloads import AFTER_INSTANT, WORKLOADS, Probe, Workload
from repro.deployment.rollout import RolloutPlan
from repro.deployment.topology import Topology
from repro.devices.phenomena import DiurnalField, RandomWalkField
from repro.faults.plan import (CLAUSES, Clause, SensorClause,
                               check_schedule, install)
from repro.net.mac.csma import CsmaConfig
from repro.net.mac.lpl import LplConfig
from repro.net.mac.rimac import RiMacConfig
from repro.net.mac.tsch import TschConfig
from repro.net.rpl.dodag import RplConfig
from repro.net.rpl.rnfd import RnfdConfig
from repro.net.stack import StackConfig
from repro.radio.propagation import LogDistanceModel, UnitDiskModel

FORMAT = "repro.scenario/2"


@dataclass(frozen=True)
class Rollout:
    """A geometric staged rollout (:meth:`RolloutPlan.geometric`): the
    root starts alone, a pilot of ``pilot_size`` nodes follows at t=0,
    and every ``stage_interval_s`` a stage ``growth_factor`` times the
    last one, in node-id order."""

    pilot_size: int
    growth_factor: int
    stage_interval_s: float

    def plan(self, topology: Topology) -> RolloutPlan:
        return RolloutPlan.geometric(topology, self.pilot_size,
                                     self.growth_factor, self.stage_interval_s)


@dataclass(frozen=True)
class Scenario:
    """Everything one run is made of; ``run(seed)`` runs it."""

    topology: Topology
    config: SystemConfig = field(default_factory=SystemConfig)
    #: None: the system's default unit-disk model.
    link_model: Optional[Any] = None
    #: (name, phenomenon) sensors on every non-root node, before start.
    sensors: Tuple[Tuple[str, Any], ...] = ()
    rollout: Optional[Rollout] = None
    #: The fault schedule, in absolute simulated time.
    faults: Tuple[Clause, ...] = ()
    #: When the schedule is installed: None when formation ends; a later
    #: time once everything queued for that instant has run.
    faults_at_s: Optional[float] = None
    #: Declare the clauses' windows, with this grace, on every
    #: fault-aware checker of the default suite (None: declare none).
    grace_s: Optional[float] = None
    workloads: Tuple[Workload, ...] = ()
    formation_s: float = 0.0
    run_s: float = 0.0

    def __post_init__(self) -> None:
        for name in ("sensors", "faults", "workloads"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        for name in ("formation_s", "run_s", "grace_s"):
            value = getattr(self, name)
            if value is not None and not 0 <= value < math.inf:
                raise ValueError(f"Scenario.{name} must be finite and >= 0, "
                                 f"not {value!r}")
        if self.faults_at_s is not None \
                and not self.formation_s <= self.faults_at_s < math.inf:
            raise ValueError(f"Scenario.faults_at_s must be finite and >= "
                             f"formation_s, not {self.faults_at_s!r}")
        nodes = self.topology.positions
        check_schedule(self.faults, nodes, self.formation_s
                       if self.faults_at_s is None else self.faults_at_s,
                       where="Scenario.faults")
        names = [name for name, _ in self.sensors]
        for index, name in enumerate(names):
            if name in names[:index]:
                raise ValueError(f"Scenario.sensors[{index}]: sensor "
                                 f"name {name!r} is taken")
        owners: Dict[int, int] = {}
        for index, workload in enumerate(self.workloads):
            where = f"Scenario.workloads[{index}]"
            if isinstance(workload, Probe):
                for source in workload.sources:
                    if source not in nodes:
                        raise ValueError(f"{where}.sources: unknown node "
                                         f"{source!r}")
            for node in workload.nodes:
                if node not in nodes:
                    raise ValueError(f"{where}: {workload.kind} needs node "
                                     f"{node}, which the topology lacks")
            for switch in workload.switches:
                if not getattr(self.config, switch):
                    raise ValueError(f"{where}: {workload.kind} needs "
                                     f"SystemConfig.{switch}=True")
            for name in workload.sensors:
                if name not in names:
                    raise ValueError(f"{where}: {workload.kind} reads sensor "
                                     f"{name!r}, which Scenario.sensors lacks")
            for port in workload.ports:
                if port in owners:
                    raise ValueError(
                        f"{where}: {workload.kind} binds port {port}, which "
                        f"Scenario.workloads[{owners[port]}] binds")
                owners[port] = index
        added = {pair for workload in self.workloads for pair in workload.adds}
        for index, clause in enumerate(self.faults):
            if isinstance(clause, SensorClause) \
                    and (clause.node, clause.sensor) not in added \
                    and (clause.sensor not in names
                         or clause.node == self.topology.root_id):
                raise ValueError(f"Scenario.faults[{index}].sensor: node "
                                 f"{clause.node} has no sensor "
                                 f"{clause.sensor!r}")

    # -- running ---------------------------------------------------------
    def build(self, seed: int, observe=None) -> IIoTSystem:
        """The system formed at ``formation_s``, its workloads started
        and its faults installed (or, with ``faults_at_s``, scheduled to be
        installed once everything queued for that instant has run).
        ``observe(system)`` runs on the bare system before anything is
        started or emitted: where ``report --live`` sets the telemetry
        sink and ``repro replay`` subscribes to the whole trace."""
        system = IIoTSystem.build(self.topology, config=self.config,
                                  link_model=self.link_model, seed=seed)
        if observe is not None:
            observe(system)
        for name, phenomenon in self.sensors:
            system.add_field_sensors(name, phenomenon)
        system.workloads = [w.attach(system, self) for w in self.workloads]
        first = None
        if self.rollout is not None:
            self.rollout.plan(self.topology).execute(
                system.sim, system.activate, system.trace)
            first = []  # the root alone; the stages bring the rest
        system.start(first)
        system.run(self.formation_s)
        for driver in system.workloads:
            driver.formed()
        if self.faults:
            if self.faults_at_s is None:
                self._install_faults(system)
            else:
                system.sim.schedule_at(self.faults_at_s,
                                       lambda: self._install_faults(system),
                                       AFTER_INSTANT)
        return system

    def run(self, seed: int, observe=None) -> IIoTSystem:
        """:meth:`build`, then ``run_s`` more simulated seconds."""
        system = self.build(seed, observe)
        system.run(self.run_s)
        return system

    def _install_faults(self, system: IIoTSystem) -> None:
        runtime = install(system, self.faults)
        if self.grace_s is not None:
            for checker in system.checkers.checkers:
                if hasattr(checker, "declare_fault_window"):
                    runtime.declare_windows(checker, self.grace_s)
        for driver in system.workloads:
            driver.faults_installed(runtime)

    # -- codec -----------------------------------------------------------
    def to_jsonable(self) -> Dict[str, Any]:
        """Plain JSON (``repro.scenario/2``): ``faults`` is a list of
        clauses tagged by ``kind``, as ``workloads`` is."""
        hints = typing.get_type_hints(Scenario)
        return {"format": FORMAT, **{
            f.name: _encode(getattr(self, f.name), hints[f.name])
            for f in dataclasses.fields(self)}}

    @classmethod
    def from_jsonable(cls, payload: Any) -> "Scenario":
        """Decode :meth:`to_jsonable`'s shape; anything malformed — wrong
        shape, unknown type or field, a mistyped value, a clause or time
        the scenario refuses — raises ``ValueError`` naming its path."""
        if not isinstance(payload, dict) or payload.get("format") != FORMAT:
            raise ValueError(f"not a scenario: {payload!r:.80}")
        try:
            return _construct(cls, {k: v for k, v in payload.items()
                                    if k != "format"})
        except _PathError as exc:
            raise ValueError("Scenario{}: {}".format(*exc.args)) from None

    @property
    def content_hash(self) -> str:
        return content_hash(self.to_jsonable())

    def __hash__(self) -> int:
        return int(self.content_hash[:16], 16)


def content_hash(payload: Dict[str, Any]) -> str:
    """sha256 of a JSON payload's canonical text (sorted keys, no
    whitespace) — a scenario's identity across processes."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)
    return hashlib.sha256(text.encode()).hexdigest()


# ----------------------------------------------------------------------
# the value codec: dataclasses typed by their field annotations
# ----------------------------------------------------------------------
#: Every value class a scenario may hold, by the name its JSON tags it
#: with (a workload or a fault clause is tagged by its ``kind`` instead).
_VALUE_TYPES = {cls.__name__: cls for cls in (
    SystemConfig, StackConfig, RplConfig, RnfdConfig, CsmaConfig, LplConfig,
    RiMacConfig, TschConfig, UnitDiskModel, LogDistanceModel, Topology,
    DiurnalField, RandomWalkField, Rollout)}
#: Base class → its ``kind`` table.
_KINDS = {Workload: WORKLOADS, Clause: CLAUSES}


class _PathError(ValueError):
    """``(path, reason)``: a malformed value ``.field``/``[index]``
    steps deep in the decoded scenario."""


def _at(step: str, exc: Exception) -> _PathError:
    """``exc`` seen one ``step`` further from the scenario."""
    path, reason = exc.args if isinstance(exc, _PathError) else ("", exc)
    return _PathError(step + path, reason)


def _json_type(value: Any, *types: type) -> Any:
    """``value`` if its type is exactly one of ``types`` (so a JSON
    ``true`` is not an integer)."""
    if type(value) not in types:
        names = "/".join(t.__name__ for t in types)
        raise ValueError(f"expected {names}, got {value!r:.60}")
    return value


def _strip_optional(hint: Any) -> Any:
    if typing.get_origin(hint) is typing.Union:
        rest = [a for a in typing.get_args(hint) if a is not type(None)]
        return rest[0] if len(rest) == 1 else Any
    return hint


def _items(hint: Any, n: int) -> Tuple[Any, ...]:
    """The annotation of each of a tuple's ``n`` items."""
    args = typing.get_args(hint)
    if len(args) == 2 and args[1] is Ellipsis:
        return (args[0],) * n
    if len(args) != n:
        raise ValueError(f"expected {len(args)} items, got {n}")
    return args


def _encode(value: Any, hint: Any) -> Any:
    if value is None:
        return None
    if dataclasses.is_dataclass(value):
        tag = (("kind", value.kind) if isinstance(value, tuple(_KINDS))
               else ("type", type(value).__name__))
        hints = typing.get_type_hints(type(value))
        return dict([tag], **{f.name: _encode(getattr(value, f.name), hints[f.name])
                              for f in dataclasses.fields(value)})
    hint = _strip_optional(hint)
    if isinstance(value, dict):  # as [key, value] pairs, sorted by key
        return [_encode(item, typing.Tuple[typing.get_args(hint)])
                for item in sorted(value.items())]
    if isinstance(value, (tuple, list)):
        return [_encode(v, h) for v, h in zip(value, _items(hint, len(value)))]
    return float(value) if hint is float else value


def _decode(value: Any, hint: Any) -> Any:
    if value is None and _strip_optional(hint) is not hint:
        return None
    hint = _strip_optional(hint)
    origin = typing.get_origin(hint)
    if hint is float:
        return float(_json_type(value, int, float))
    if hint in (int, bool, str):
        return _json_type(value, hint)
    if origin in (tuple, dict):
        if type(value) is not list:
            raise ValueError(f"expected a list, got {value!r:.60}")
        if origin is dict:
            pair = typing.Tuple[typing.get_args(hint)]
            return dict(_decode(item, pair) for item in value)
        items = []
        for index, (v, h) in enumerate(zip(value, _items(hint, len(value)))):
            try:
                items.append(_decode(v, h))
            except (ValueError, OverflowError) as exc:
                raise _at(f"[{index}]", exc) from None
        return tuple(items)
    tag = "kind" if hint in _KINDS else "type"
    registry = _KINDS.get(hint, _VALUE_TYPES)
    if type(value) is not dict:
        raise ValueError(f"expected an object, got {value!r:.60}")
    name = value.get(tag)
    cls = registry.get(name) if type(name) is str else None
    if cls is None or (dataclasses.is_dataclass(hint)
                       and not issubclass(cls, hint)):
        raise ValueError(f"unexpected {tag} {name!r:.40}")
    return _construct(cls, {k: v for k, v in value.items() if k != tag})


def _construct(cls, payload: Dict[str, Any]) -> Any:
    """``cls`` from its decoded fields; its own refusal (a
    ``ValueError`` naming the field) passes through."""
    hints = typing.get_type_hints(cls)
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(payload) - set(fields)
    if unknown:
        raise ValueError(f"{cls.__name__}: unknown field(s) "
                         f"{sorted(map(str, unknown))}")
    kwargs = {}
    for name, f in fields.items():
        if name in payload:
            try:
                kwargs[name] = _decode(payload[name], hints[name])
            except (ValueError, OverflowError) as exc:
                raise _at(f".{name}", exc) from None
        elif f.default is dataclasses.MISSING \
                and f.default_factory is dataclasses.MISSING:
            raise ValueError(f"{cls.__name__}: missing field {name!r}")
    try:
        return cls(**kwargs)
    except (TypeError, ArithmeticError) as exc:
        raise ValueError(f"{cls.__name__}: {exc}") from None
