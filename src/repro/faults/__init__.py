"""Fault injection for the dependability experiments (paper §V).

- :mod:`repro.faults.plan` — the one fault scheduler: declarative,
  seed-deterministic fault plans (timed crashes and border-router
  kills, sensor faults, partitions, link flaps, interference, bounded
  MTBF/MTTR crash storms) whose :class:`FaultPlanRuntime` compiles each
  clause straight onto the primitives, with checker fault-window
  declaration and ``fault.*`` observability built in;
- :mod:`repro.faults.partitions` — the partition primitive: geometric
  network cuts and per-link blocks through the medium's link filter,
  and their healing.

The other primitives live with what they break — ``DeviceNode.fail``/
``recover``, ``Sensor.inject_fault`` and
:class:`~repro.radio.interference.WifiInterferer` — and an experiment
that must act at one chosen instant calls them directly.
"""

from repro.faults.partitions import GeometricPartition, PartitionController
from repro.faults.plan import (
    BORDER_ROUTER,
    CrashClause,
    FaultPlan,
    FaultPlanRuntime,
    InterferenceClause,
    LinkFlapClause,
    PartitionClause,
    RandomCrashesClause,
    SensorClause,
)

__all__ = [
    "BORDER_ROUTER",
    "CrashClause",
    "FaultPlan",
    "FaultPlanRuntime",
    "GeometricPartition",
    "InterferenceClause",
    "LinkFlapClause",
    "PartitionClause",
    "PartitionController",
    "RandomCrashesClause",
    "SensorClause",
]
