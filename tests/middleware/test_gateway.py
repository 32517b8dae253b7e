"""Gateway + resource directory integration."""

import pytest

from repro.middleware.adapters.modbus import (
    LegacyModbusDevice,
    ModbusAdapter,
    RegisterSpec,
)
from repro.middleware.coap.client import CoapClient
from repro.middleware.coap.codes import CoapCode
from repro.middleware.coap.resource import CallbackResource
from repro.middleware.coap.server import CoapServer
from repro.middleware.coap.transport import CoapTransport
from repro.middleware.gateway import (
    Gateway,
    middleware_integration_cost,
    pairwise_integration_cost,
)
from tests.conftest import build_line_network


def converged_with_gateway(n=4, seed=60):
    sim, trace, stacks = build_line_network(n, seed=seed)
    sim.run(until=120.0 + 60.0 * n)
    return sim, trace, stacks, Gateway(stacks[0])


def serve_device(stacks, node_id, value=21.5):
    transport = CoapTransport(stacks[node_id])
    server = CoapServer(transport)
    server.add_resource(CallbackResource(
        "/sensors/temp", on_get=lambda: (value, 4)))
    return CoapClient(transport)


class TestResourceDirectory:
    def test_registration_and_lookup(self):
        sim, trace, stacks, gateway = converged_with_gateway()
        client = serve_device(stacks, 3)
        outcome = []
        client.request(0, CoapCode.POST, "/rd",
                       callback=lambda r: outcome.append(r and r.code),
                       payload={"node": 3,
                                "paths": ["/sensors/temp", "/actuators/valve"]},
                       payload_bytes=24)
        sim.run(until=sim.now + 30.0)
        assert outcome == [CoapCode.CREATED]
        assert gateway.directory.nodes() == [3]
        assert sorted(gateway.directory.entries) == [
            (3, "/actuators/valve"), (3, "/sensors/temp")]
        assert gateway.targets() == ["native/3"]

    def test_malformed_registration_rejected(self):
        sim, trace, stacks, gateway = converged_with_gateway()
        code, _, _ = gateway.directory.handle_post("not-a-dict")
        assert code is CoapCode.BAD_REQUEST


class TestUniformAccess:
    def test_native_read_through_gateway(self):
        sim, trace, stacks, gateway = converged_with_gateway()
        serve_device(stacks, 3, value=23.25)
        out = []
        gateway.read("native/3", "/sensors/temp", out.append)
        sim.run(until=sim.now + 30.0)
        assert out == [23.25]

    def test_native_write_is_refused_naming_the_target(self):
        sim, trace, stacks, gateway = converged_with_gateway()
        serve_device(stacks, 3, value=23.25)
        with pytest.raises(ValueError, match="'native/3'"):
            gateway.write("native/3", "/actuators/valve", 0.4,
                          lambda ok: None)
        assert gateway.writes == 0
        # The refused write leaves the native device readable.
        out = []
        gateway.read("native/3", "/sensors/temp", out.append)
        sim.run(until=sim.now + 30.0)
        assert out == [23.25]

    def test_legacy_read_through_gateway(self):
        sim, trace, stacks, gateway = converged_with_gateway()
        device = LegacyModbusDevice(sim, 1, registers={100: 777})
        gateway.attach_legacy("meter", ModbusAdapter(
            device, {"kwh": RegisterSpec(address=100, scale=10.0)}))
        out = []
        gateway.read("legacy/meter", "kwh", out.append)
        sim.run(until=sim.now + 5.0)
        assert out == [77.7]

    def test_legacy_write_through_gateway(self):
        sim, trace, stacks, gateway = converged_with_gateway()
        device = LegacyModbusDevice(sim, 1, registers={101: 0})
        gateway.attach_legacy("boiler", ModbusAdapter(device, {
            "setpoint": RegisterSpec(address=101, scale=10.0,
                                     writable=True)}))
        out = []
        gateway.write("legacy/boiler", "setpoint", 55.5, out.append)
        sim.run(until=sim.now + 5.0)
        assert out == [True]
        assert device.registers[101] == 555
        assert gateway.writes == 1

    def test_unknown_target_kind_write_rejected(self):
        sim, trace, stacks, gateway = converged_with_gateway()
        with pytest.raises(ValueError, match="'cloud/thing'"):
            gateway.write("cloud/thing", "x", 1.0, lambda ok: None)
        assert gateway.writes == 0

    def test_unknown_target_kind_rejected(self):
        sim, trace, stacks, gateway = converged_with_gateway()
        with pytest.raises(ValueError):
            gateway.read("cloud/thing", "x", lambda v: None)

    def test_unknown_legacy_name_rejected(self):
        sim, trace, stacks, gateway = converged_with_gateway()
        with pytest.raises(KeyError):
            gateway.read("legacy/ghost", "x", lambda v: None)

    def test_duplicate_legacy_attachment_rejected(self):
        sim, trace, stacks, gateway = converged_with_gateway()
        device = LegacyModbusDevice(sim, 1)
        adapter = ModbusAdapter(device, {})
        gateway.attach_legacy("m", adapter)
        with pytest.raises(ValueError):
            gateway.attach_legacy("m", adapter)

    def test_gateway_requires_root(self):
        sim, trace, stacks = build_line_network(2, seed=61)
        with pytest.raises(ValueError):
            Gateway(stacks[1])

    def test_read_of_dead_native_device_reports_none(self):
        sim, trace, stacks, gateway = converged_with_gateway()
        serve_device(stacks, 3)
        stacks[3].fail()
        out = []
        gateway.read("native/3", "/sensors/temp", out.append)
        sim.run(until=sim.now + 120.0)
        assert out == [None]


class TestIntegrationCosts:
    def test_pairwise_is_quadratic(self):
        assert pairwise_integration_cost(2) == 1
        assert pairwise_integration_cost(10) == 45

    def test_middleware_is_linear(self):
        assert middleware_integration_cost(10) == 10

    def test_crossover_at_three_systems(self):
        # Middleware starts winning as soon as more than 3 systems talk.
        for n in range(4, 20):
            assert middleware_integration_cost(n) < pairwise_integration_cost(n)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            pairwise_integration_cost(-1)
        with pytest.raises(ValueError):
            middleware_integration_cost(-1)
