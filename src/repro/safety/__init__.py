"""Soft safety: the HVAC comfort-vs-energy case study (paper §V-B).

The paper argues safety in non-life-critical industrial IoT is
*continuous*: an HVAC system may deliberately trade comfort-margin
violations for energy savings, with revenue tied to both.  This package
provides the physics (lumped-RC thermal zones, :mod:`repro.safety.thermal`
and :mod:`repro.safety.hvac`), the policies (bang-bang and
occupancy-aware setback controllers, :mod:`repro.safety.controllers`),
the comfort accounting (:mod:`repro.safety.comfort`), and the revenue
model experiment E8 sweeps (:mod:`repro.safety.revenue`).
"""
