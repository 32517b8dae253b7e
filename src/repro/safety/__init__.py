"""Soft safety: the HVAC comfort-vs-energy case study (paper §V-B).

The paper argues safety in non-life-critical industrial IoT is
*continuous*: an HVAC system may deliberately trade comfort-margin
violations for energy savings, with revenue tied to both.  This package
provides the physics (lumped-RC thermal zones), the policies (bang-bang
and occupancy-aware setback controllers), the comfort accounting, and
the revenue model experiment E8 sweeps.
"""

from repro.safety.comfort import ComfortBand, ComfortTracker, OccupancySchedule
from repro.safety.controllers import (
    BangBangController,
    Controller,
    SetbackController,
)
from repro.safety.hvac import HvacZone
from repro.safety.revenue import RevenueModel, RevenueStatement
from repro.safety.thermal import ThermalZone

__all__ = [
    "BangBangController",
    "ComfortBand",
    "ComfortTracker",
    "Controller",
    "HvacZone",
    "OccupancySchedule",
    "RevenueModel",
    "RevenueStatement",
    "SetbackController",
    "ThermalZone",
]
