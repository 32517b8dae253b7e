"""Legacy device adapters."""

import pytest

from repro.middleware.adapters import modbus, proprietary
from repro.middleware.adapters.base import AdapterError
from repro.middleware.adapters.modbus import (
    LegacyModbusDevice,
    ModbusAdapter,
    RegisterSpec,
)
from repro.middleware.adapters.proprietary import (
    ProprietaryAdapter,
    ProprietaryAsciiDevice,
)
from repro.sim.kernel import Simulator


class TestModbus:
    def make(self, sim):
        device = LegacyModbusDevice(sim, unit_id=1, registers={100: 234, 101: 0})
        adapter = ModbusAdapter(device, {
            "temp": RegisterSpec(address=100, scale=10.0),
            "setpoint": RegisterSpec(address=101, scale=10.0, writable=True),
        })
        return device, adapter

    def test_read_translates_scaled_register(self, sim):
        _, adapter = self.make(sim)
        out = []
        adapter.read_point("temp", out.append)
        sim.run()
        assert out == [23.4]

    def test_write_scales_into_register(self, sim):
        device, adapter = self.make(sim)
        out = []
        adapter.write_point("setpoint", 55.5, out.append)
        sim.run()
        assert out == [True]
        assert device.registers[101] == 555

    def test_read_only_point_rejects_write(self, sim):
        _, adapter = self.make(sim)
        with pytest.raises(AdapterError):
            adapter.write_point("temp", 1.0, lambda ok: None)

    def test_unknown_point_rejected(self, sim):
        _, adapter = self.make(sim)
        with pytest.raises(AdapterError):
            adapter.read_point("pressure", lambda v: None)

    def test_bus_latency_applies(self, sim):
        device, adapter = self.make(sim)
        done_at = []
        adapter.read_point("temp", lambda v: done_at.append(sim.now))
        sim.run()
        assert done_at[0] == pytest.approx(modbus.BUS_LATENCY_S)

    def test_missing_register_reads_none(self, sim):
        device = LegacyModbusDevice(sim, unit_id=1)
        adapter = ModbusAdapter(device, {"x": RegisterSpec(address=7)})
        out = []
        adapter.read_point("x", out.append)
        sim.run()
        assert out == [None]

    def test_out_of_range_write_fails(self, sim):
        device, adapter = self.make(sim)
        out = []
        adapter.write_point("setpoint", 1e9, out.append)
        sim.run()
        assert out == [False]


class TestProprietary:
    @pytest.fixture(autouse=True)
    def _never_busy(self, monkeypatch):
        monkeypatch.setattr(proprietary, "BUSY_PROBABILITY", 0.0)

    def make(self, sim):
        device = ProprietaryAsciiDevice(
            sim, "chiller", {"TEMP": 7.5, "VLV": 0.0})
        return device, ProprietaryAdapter(device)

    def test_read_parses_ok_reply(self, sim):
        _, adapter = self.make(sim)
        out = []
        adapter.read_point("TEMP", out.append)
        sim.run()
        assert out == [7.5]

    def test_write_round_trip(self, sim):
        device, adapter = self.make(sim)
        out = []
        adapter.write_point("VLV", 0.5, out.append)
        sim.run()
        assert out == [True]
        assert device.variables["VLV"] == pytest.approx(0.5)

    def test_unknown_variable_reads_none(self, sim):
        _, adapter = self.make(sim)
        out = []
        adapter.read_point("NOPE", out.append)
        sim.run()
        assert out == [None]

    def test_busy_replies_are_retried(self, sim, monkeypatch):
        monkeypatch.setattr(proprietary, "BUSY_PROBABILITY", 0.5)
        device, adapter = self.make(sim)
        out = []
        adapter.read_point("TEMP", out.append)
        sim.run()
        # Retried through BUSY until an answer (high probability with 5
        # retries at 50% busy); commands handled > 1 proves retrying.
        assert out and (out[0] == 7.5 or device.commands_handled > 1)

    def test_raw_syntax_error_reply(self, sim):
        device, _ = self.make(sim)
        replies = []
        device.execute("GIBBERISH", replies.append)
        sim.run()
        assert replies == ["ERR SYNTAX"]
