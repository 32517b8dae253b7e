"""repro — an executable reproduction of *A Distributed Systems
Perspective on Industrial IoT* (Konrad Iwanicki, ICDCS 2018).

The paper is a vision piece: it defines the sensing-and-actuation layer
of industrial IoT (Fig. 1) and analyzes it along interoperability,
scalability, and dependability.  This library realizes that analysis as
a running system: a deterministic simulation of constrained wireless
devices, a full low-power network stack (duty-cycled MACs, RPL-style
routing with RNFD and partition handling), CoAP middleware with legacy
gateways, CRDT replication, in-network aggregation, an HVAC soft-safety
case study, security machinery, and fault injection — plus an
experiment harness that regenerates a quantitative result for every
claim the paper makes (see DESIGN.md and EXPERIMENTS.md).

Every name is imported from the module that defines it; the packages
re-export nothing, so ``import repro`` loads no submodule.  The packages
form tiers, lowest first — ``sim``; ``radio`` and ``obs``; ``net``;
``devices``/``deployment``/``crdt``/``middleware``;
``aggregation``/``safety``/``security``; ``faults``/``checking``;
``core``; ``app`` — and a package imports only lower tiers (DESIGN.md,
"Layers").

Quick start — a run is a :class:`~repro.core.scenario.Scenario`, a
frozen value (topology, config, sensors, faults, workloads, times)::

    from repro.core.scenario import Scenario
    from repro.deployment.topology import grid_topology

    system = Scenario(topology=grid_topology(side=5),
                      formation_s=300.0).build(seed=1)
    print(f"joined: {system.joined_fraction():.0%}")
"""

__version__ = "1.0.0"
