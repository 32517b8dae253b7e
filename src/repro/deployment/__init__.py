"""Deployment modelling: topologies and incremental rollout (§IV).

Sensing/actuation points are *placed by the application*, not by the
software architect — :mod:`repro.deployment.topology` encodes that:
grids and buildings for structured plants, clustered layouts for
construction sites; :mod:`repro.deployment.rollout` grows a deployment
by orders of magnitude in stages.
"""
