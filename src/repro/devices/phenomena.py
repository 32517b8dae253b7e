"""Synthetic physical phenomena for sensors to observe.

Real deployments sense real fields; the reproduction substitutes
deterministic synthetic fields (substitution table in DESIGN.md).  A
:class:`Phenomenon` maps ``(time, position)`` to a value, which gives
spatially-coherent readings — essential for the in-network aggregation
experiments, where MIN/MAX/AVG over a coherent field is the whole point.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Protocol, Tuple

Position = Tuple[float, float]

# A random walk's shape, read at run time (a test patches them).
#: The walk's value at time 0.
WALK_START = 50.0
#: Simulated seconds between two steps of the walk.
WALK_STEP_S = 10.0


class Phenomenon(Protocol):
    """A scalar field over space and time."""

    def value_at(self, time: float, position: Position) -> float:
        """Field value at ``position`` at simulated ``time``."""


@dataclass(frozen=True)
class DiurnalField:
    """A sinusoidal daily cycle with a linear spatial gradient.

    Models ambient temperature: warm afternoons, cold nights, and a
    gradient across the site (e.g. the sunny side of a building).  The
    paper's §II-B notes devices face "low and high temperatures,
    sometimes in sub-diurnal cycles" — this is that cycle.
    """

    mean: float = 18.0
    amplitude: float = 7.0
    period_s: float = 86_400.0
    #: Value increase per meter along x.
    gradient_per_m: float = 0.01
    phase_s: float = 0.0

    def value_at(self, time: float, position: Position) -> float:
        cycle = math.sin(2 * math.pi * (time + self.phase_s) / self.period_s)
        return self.mean + self.amplitude * cycle + self.gradient_per_m * position[0]


@dataclass(frozen=True)
class RandomWalkField:
    """A temporally-correlated random walk, identical across space, from
    ``WALK_START`` in steps every ``WALK_STEP_S``.

    Values are generated lazily per time step and cached, so repeated
    queries are deterministic for a given seed.
    """

    step_sigma: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "_rng", random.Random(self.seed))
        object.__setattr__(self, "_values", [WALK_START])

    def value_at(self, time: float, position: Position) -> float:
        index = max(0, int(time / WALK_STEP_S))
        while len(self._values) <= index:
            self._values.append(
                self._values[-1] + self._rng.gauss(0.0, self.step_sigma))
        return self._values[index]
