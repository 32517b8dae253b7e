"""Quickstart: build a small industrial IoT system and watch it work.

Runs in a few seconds::

    python examples/quickstart.py

What it shows:

1. a 5x5 grid of constrained devices self-organizes into a DODAG rooted
   at the border router (nobody configures routes);
2. telemetry flows: an in-network AVG query returns one result per epoch;
3. a device is read on demand through the CoAP middleware;
4. the energy story: per-node duty cycle and projected battery life.
"""

from repro.aggregation.service import AggregationService
from repro.core.metrics import collect_energy, mean
from repro.core.scenario import Scenario
from repro.deployment.topology import grid_topology
from repro.devices.phenomena import DiurnalField
from repro.middleware.coap.resource import CallbackResource
from repro.middleware.coap.server import CoapServer
from repro.middleware.coap.transport import CoapTransport


def main() -> None:
    # --- build the sensing/actuation tier -----------------------------
    outside = DiurnalField(mean=18.0, amplitude=6.0)
    system = Scenario(topology=grid_topology(side=5, spacing_m=20.0),
                      sensors=(("temp", outside),),
                      formation_s=240.0).build(seed=42)
    print(f"network of {system.topology.size} devices: "
          f"{system.joined_fraction():.0%} joined, "
          f"depth {system.topology.network_depth(25.0)} hops")

    # --- continuous telemetry: in-network aggregation -----------------
    services = [AggregationService(node) for node in system.nodes.values()]
    results = []
    services[0].run_query("temp", "avg", epoch_s=60.0, lifetime_epochs=5,
                          on_result=results.append)
    system.run(360.0)
    for result in results:
        print(f"  epoch {result.epoch}: avg temp "
              f"{result.value:.2f} C over {result.node_count} nodes")

    # --- on-demand access: CoAP through the middleware ----------------
    device = system.nodes[24]  # far corner
    transport = CoapTransport(device.stack)
    server = CoapServer(transport)
    server.add_resource(CallbackResource(
        "/sensors/temp",
        on_get=lambda: (device.read("temp"), 4),
    ))
    answers = []
    client = system.gateway.client
    client.get(24, "/sensors/temp", lambda r: answers.append(r))
    system.run(30.0)
    response = answers[0]
    print(f"CoAP GET coap://node24/sensors/temp -> {response.code}: "
          f"{response.payload:.2f} C "
          f"(across {system.topology.network_depth(25.0)} wireless hops)")

    # --- the energy reality of the sensing/actuation layer ------------
    summaries = collect_energy(system.nodes.values(), system.sim.now)
    print(f"mean radio duty cycle: "
          f"{mean([s.duty_cycle for s in summaries]):.1%} "
          f"(CSMA keeps radios on; see examples/smart_building_hvac.py "
          f"for the duty-cycled variant)")


if __name__ == "__main__":
    main()
