"""Factory retrofit: integrating legacy equipment, securely.

Runs in seconds::

    python examples/factory_retrofit.py

What it shows (paper sections in brackets):

1. a brownfield integration: new wireless CoAP sensors coexist with a
   1990s Modbus-like drive and a proprietary-ASCII chiller, all unified
   behind the gateway's northbound API [§III];
2. the middleware economics: adapters grow linearly, pairwise
   integration quadratically [§III-B];
3. the security story: an attacker in the parking lot injects actuation
   commands — they land when link-layer security is off, and die at the
   MAC with MIC-32 enabled, raising an alarm [§V-E].
"""

from repro.core.scenario import Scenario
from repro.deployment.topology import grid_topology
from repro.middleware.adapters.modbus import (
    LegacyModbusDevice,
    ModbusAdapter,
    RegisterSpec,
)
from repro.middleware.adapters.proprietary import (
    ProprietaryAdapter,
    ProprietaryAsciiDevice,
)
from repro.middleware.coap.client import CoapClient
from repro.middleware.coap.codes import CoapCode
from repro.middleware.coap.resource import CallbackResource
from repro.middleware.coap.server import CoapServer
from repro.middleware.coap.transport import CoapTransport
from repro.middleware.gateway import (
    middleware_integration_cost,
    pairwise_integration_cost,
)
from repro.security.attacks import CommandInjector
from repro.security.auth import FrameAuthenticator
from repro.security.detector import AnomalyDetector
from repro.security.keys import KeyStore

NETWORK_KEY = 0x5EC2E7


def main() -> None:
    system = Scenario(topology=grid_topology(3), formation_s=300.0).build(99)
    gateway = system.gateway
    print(f"retrofit network: {system.joined_fraction():.0%} of "
          f"{system.topology.size - 1} new wireless sensors joined")

    # --- native devices register their resources ----------------------
    for node_id, value in ((4, 61.2), (8, 58.9)):
        node = system.nodes[node_id]
        transport = CoapTransport(node.stack)
        server = CoapServer(transport)
        client = CoapClient(transport)
        server.add_resource(CallbackResource(
            "/sensors/vibration", on_get=(lambda v: lambda: (v, 4))(value)))
        client.request(0, CoapCode.POST, "/rd", callback=lambda r: None,
                       payload={"node": node_id,
                                "paths": ["/sensors/vibration"]},
                       payload_bytes=16)
    system.run(60.0)

    # --- legacy equipment wires into the gateway ----------------------
    drive = LegacyModbusDevice(system.sim, unit_id=3,
                               registers={100: 1480, 101: 752})
    gateway.attach_legacy("main-drive", ModbusAdapter(drive, {
        "rpm": RegisterSpec(address=100, scale=1.0),
        "temp": RegisterSpec(address=101, scale=10.0),
        "setpoint_rpm": RegisterSpec(address=102, scale=1.0, writable=True),
    }))
    chiller = ProprietaryAsciiDevice(system.sim, "chiller",
                                     {"TEMP": 6.8, "VLV": 0.4})
    gateway.attach_legacy("chiller", ProprietaryAdapter(chiller))

    print(f"gateway namespace: {gateway.targets()}")
    readings = {}
    plan = [("native/4", "/sensors/vibration"),
            ("native/8", "/sensors/vibration"),
            ("legacy/main-drive", "rpm"),
            ("legacy/main-drive", "temp"),
            ("legacy/chiller", "TEMP")]
    for target, point in plan:
        gateway.read(target, point,
                     (lambda t, p: lambda v: readings.update({f"{t}:{p}": v})
                      )(target, point))
    system.run(30.0)
    for key, value in readings.items():
        print(f"  {key} = {value}")
    gateway.write("legacy/main-drive", "setpoint_rpm", 1200.0,
                  lambda ok: print(f"  write setpoint_rpm=1200 -> {ok}"))
    system.run(5.0)

    n = 12
    print(f"integration cost at {n} systems: middleware "
          f"{middleware_integration_cost(n)} adapters vs pairwise "
          f"{pairwise_integration_cost(n)} translators")

    # --- the parking-lot attacker --------------------------------------
    victim = system.nodes[8]
    opened = []
    victim.stack.bind(55, lambda d: opened.append(d.payload))
    attacker = CommandInjector(system.sim, system.medium, 666,
                               (45.0, 32.0), trace=system.trace)
    attacker.inject(victim=8, port=55, payload="VALVE_OPEN", payload_bytes=8)
    system.run(30.0)
    print(f"security OFF: injected commands applied = {opened}")

    print("enabling link-layer security (MIC-32, network key)...")
    for node in system.nodes.values():
        keystore = KeyStore(node.node_id)
        keystore.provision_network_key(NETWORK_KEY)
        FrameAuthenticator(node.stack.mac, keystore,
                           trace=system.trace).enable()
    detector = AnomalyDetector(system.sim, system.trace,
                               rejection_threshold=3, window_s=600.0)
    opened.clear()
    for i in range(5):
        system.sim.schedule(10.0 * i,
                            (lambda: attacker.inject(8, 55, "VALVE_OPEN", 8)))
    system.run(120.0)
    print(f"security ON: injected commands applied = {opened}; "
          f"alarms = {[a.kind for a in detector.alarms]}")


if __name__ == "__main__":
    main()
