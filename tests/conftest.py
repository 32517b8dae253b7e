"""Shared fixtures and builders for the test suite."""

from __future__ import annotations

from typing import List, Optional, Tuple

import pytest

from repro.net.stack import NetworkStack, StackConfig
from repro.radio.medium import Medium
from repro.radio.propagation import UnitDiskModel
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceLog


@pytest.fixture
def sim() -> Simulator:
    """A fresh deterministic simulator."""
    return Simulator(seed=1234)


@pytest.fixture
def trace() -> TraceLog:
    return TraceLog(enabled=True)


def build_medium(
    sim: Simulator,
    trace: Optional[TraceLog] = None,
    radius_m: float = 25.0,
) -> Medium:
    """A unit-disk medium (deterministic links) for protocol tests."""
    return Medium(sim, UnitDiskModel(radius_m=radius_m),
                  trace if trace is not None else TraceLog(enabled=False))


def full_scan(model_cls):
    """``model_cls`` with none of its declared capabilities.

    The medium reads a range bound and the batch paths from a model's
    *own* class dict, so an empty subclass gets the full scan and the
    scalar math: the reference an indexed medium must reproduce byte
    for byte.
    """
    return type("FullScan" + model_cls.__name__, (model_cls,), {})


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
    log = TraceLog(enabled=True)
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
    log = TraceLog(enabled=True)
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


def eager_tsch():
    """``TschMac`` with nothing left to its listen plan.

    Every actionable cell ticks as a real event and every slotframe
    boundary runs ``_frame_boundary``, so radio-on time accumulates
    window by window and the MSF counters boundary by boundary: the
    reference the event-free engine must reproduce (as :func:`full_scan`
    is for the indexed medium).  Test-side only — ``src/`` has one slot
    engine and no switch.
    """
    from repro.net.mac.tsch import TschMac

    class EagerTschMac(TschMac):
        _needs_tick = TschMac._cell_actionable

        def _next_eventful_frame(self):
            return self._frames_done

    return EagerTschMac
