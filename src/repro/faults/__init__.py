"""Fault injection for the dependability experiments (paper §V).

:mod:`repro.faults.plan` is the one fault path: declarative,
seed-deterministic fault plans (timed crashes and border-router kills,
sensor faults, partitions, link flaps, interference, bounded MTBF/MTTR
crash storms) whose ``FaultPlanRuntime`` compiles each clause straight
onto the primitives, with checker fault-window declaration and
``fault.*`` observability built in.

The primitives live with what they break — ``DeviceNode.fail``/
``recover``, ``Sensor.inject_fault``/``clear_fault``, the medium's link
filter and :class:`~repro.radio.interference.WifiInterferer` — and only
the runtime calls them: an experiment that must act at one chosen
instant installs a plan whose clause starts then.
"""
