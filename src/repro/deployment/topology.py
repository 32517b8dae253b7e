"""Topology generators.

A :class:`Topology` is node id → position with a designated border
router.  Generators cover the deployment shapes the paper's scenarios
imply: lines (pipelines), grids (plant floors), uniform random fields,
clustered construction sites, and multi-floor buildings projected onto
the plane.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from typing import ClassVar, Dict, List, Tuple

Position = Tuple[float, float]


@dataclass
class Topology:
    """Node placements plus the border-router designation."""

    positions: Dict[int, Position]
    name: str = "topology"

    #: Every deployment's border router (a test patches it).
    root_id: ClassVar[int] = 0

    def __post_init__(self) -> None:
        if self.root_id not in self.positions:
            raise ValueError(f"root {self.root_id} has no position")

    @property
    def size(self) -> int:
        return len(self.positions)

    def node_ids(self) -> List[int]:
        return sorted(self.positions)

    def _hops_from_root(self, radio_range_m: float) -> Dict[int, int]:
        """Hop count to every node the root reaches: a breadth-first
        search of the disk-model connectivity graph at the given range."""
        positions = self.positions
        hops = {self.root_id: 0}
        unreached = set(positions) - {self.root_id}
        queue = deque([self.root_id])
        while queue and unreached:
            a = queue.popleft()
            pa = positions[a]
            near = [b for b in unreached
                    if math.dist(pa, positions[b]) <= radio_range_m]
            unreached.difference_update(near)
            hops.update(dict.fromkeys(near, hops[a] + 1))
            queue.extend(near)
        return hops

    def is_connected(self, radio_range_m: float) -> bool:
        """Whether every node can reach the root at the given range."""
        return len(self._hops_from_root(radio_range_m)) == len(self.positions)

    def network_depth(self, radio_range_m: float) -> int:
        """Hop eccentricity of the root (the diameter that matters)."""
        return max(self._hops_from_root(radio_range_m).values())


def line_topology(n: int, spacing_m: float = 20.0) -> Topology:
    """A pipeline: nodes in a row, root at one end."""
    if n < 1:
        raise ValueError("n must be >= 1")
    positions = {i: (i * spacing_m, 0.0) for i in range(n)}
    return Topology(positions, name=f"line-{n}")


def grid_topology(side: int, spacing_m: float = 20.0) -> Topology:
    """A plant floor: ``side × side`` grid, root in a corner."""
    if side < 1:
        raise ValueError("side must be >= 1")
    positions = {}
    node_id = 0
    for y in range(side):
        for x in range(side):
            positions[node_id] = (x * spacing_m, y * spacing_m)
            node_id += 1
    return Topology(positions, name=f"grid-{side}x{side}")


def random_topology(
    n: int,
    area_m: float,
    radio_range_m: float = 25.0,
    seed: int = 0,
    max_attempts: int = 200,
) -> Topology:
    """Uniform random placement, resampled until connected.

    The root sits at the area's corner (a border router is at the
    building edge, not in the middle of the field).
    """
    rng = random.Random(seed)
    for _attempt in range(max_attempts):
        positions: Dict[int, Position] = {0: (0.0, 0.0)}
        for node_id in range(1, n):
            positions[node_id] = (
                rng.uniform(0, area_m), rng.uniform(0, area_m)
            )
        topology = Topology(positions, name=f"random-{n}")
        if topology.is_connected(radio_range_m):
            return topology
    raise RuntimeError(
        f"could not sample a connected topology: n={n}, area={area_m}, "
        f"range={radio_range_m}"
    )


def clustered_site_topology(
    clusters: int,
    nodes_per_cluster: int,
    cluster_spread_m: float = 15.0,
    site_span_m: float = 120.0,
    radio_range_m: float = 30.0,
    seed: int = 0,
) -> Topology:
    """A construction site: dense work-area clusters joined by relays.

    Cluster centers are placed on a line across the site with a relay
    chain guaranteed by the spacing; nodes scatter around their center.
    """
    if clusters < 1 or nodes_per_cluster < 1:
        raise ValueError("clusters and nodes_per_cluster must be >= 1")
    rng = random.Random(seed)
    positions: Dict[int, Position] = {0: (0.0, 0.0)}
    node_id = 1
    step = min(site_span_m / max(clusters, 1), radio_range_m * 0.8)
    for cluster in range(clusters):
        center = ((cluster + 1) * step, rng.uniform(-10.0, 10.0))
        for _ in range(nodes_per_cluster):
            positions[node_id] = (
                center[0] + rng.uniform(-cluster_spread_m, cluster_spread_m),
                center[1] + rng.uniform(-cluster_spread_m, cluster_spread_m),
            )
            node_id += 1
    return Topology(positions, name=f"site-{clusters}x{nodes_per_cluster}")


def campus_topology(
    buildings: int,
    nodes_per_building: int,
    building_span_m: float = 90.0,
    building_gap_m: float = 60.0,
    buildings_per_row: int = 4,
    jitter_m: float = 4.0,
    seed: int = 0,
) -> Topology:
    """An industrial campus: a district of buildings.

    Buildings are laid out row-major on a district grid, separated by
    ``building_gap_m`` of open ground.  Inside each building, nodes sit
    on a near-square grid spanning ``building_span_m``, jittered by up
    to ``jitter_m`` (deterministic in ``seed``) so link qualities are
    not artifacts of perfect alignment.  Node ids are contiguous per
    building — id locality mirrors spatial locality, which is also the
    honest (hardest) layout for caches keyed by id.  The first id of
    each block sits exactly at the building corner; node 0 is the
    district root.

    Total size is exactly ``buildings * nodes_per_building``, so scale
    benchmarks can hit round node counts.
    """
    if buildings < 1 or nodes_per_building < 1:
        raise ValueError("buildings and nodes_per_building must be >= 1")
    rng = random.Random(seed)
    pitch = building_span_m + building_gap_m
    side = max(1, math.ceil(math.sqrt(nodes_per_building)))
    spacing = building_span_m / side
    positions: Dict[int, Position] = {}
    node_id = 0
    for b in range(buildings):
        origin_x = (b % buildings_per_row) * pitch
        origin_y = (b // buildings_per_row) * pitch
        for i in range(nodes_per_building):
            if i == 0:
                # The block's first node anchors the building corner
                # exactly: no jitter.
                pos = (origin_x, origin_y)
            else:
                pos = (
                    origin_x + (i % side) * spacing
                    + rng.uniform(-jitter_m, jitter_m),
                    origin_y + (i // side) * spacing
                    + rng.uniform(-jitter_m, jitter_m),
                )
            positions[node_id] = pos
            node_id += 1
    return Topology(positions, name=f"campus-{buildings}x{nodes_per_building}")


def building_topology(
    floors: int,
    zones_per_floor: int,
    zone_spacing_m: float = 18.0,
    floor_spacing_m: float = 12.0,
) -> Topology:
    """An office building: zones along corridors, floors stacked.

    Projected onto the plane with floors as rows; the extra path loss of
    inter-floor slabs is approximated by the row spacing.
    """
    if floors < 1 or zones_per_floor < 1:
        raise ValueError("floors and zones_per_floor must be >= 1")
    positions: Dict[int, Position] = {0: (0.0, 0.0)}
    node_id = 1
    for floor in range(floors):
        for zone in range(zones_per_floor):
            positions[node_id] = (
                (zone + 1) * zone_spacing_m, floor * floor_spacing_m
            )
            node_id += 1
    return Topology(positions, name=f"building-{floors}f-{zones_per_floor}z")
