"""Link-layer authentication: keys, tagging, rejection, attacks."""

import pytest

from repro.core.system import IIoTSystem, SystemConfig
from repro.deployment.topology import grid_topology
from repro.net.stack import StackConfig
from repro.radio import interference
from repro.faults.plan import InterferenceClause
from repro.radio.interference import WifiInterferer
from repro.security.attacks import CommandInjector
from repro.security.auth import AuthConfig, FrameAuthenticator, compute_tag
from repro.security import crypto_cost
from repro.security.crypto_cost import (
    HARDWARE_AES,
    SOFTWARE_AES_CLASS1,
    CryptoCostModel,
)
from repro.security.detector import AnomalyDetector
from repro.security.keys import KeyStore
from repro.devices.platform import CLASS_1_MOTE
from tests.conftest import build_line_network

NETWORK_KEY = 0xDEADBEEF


def secured_network(n=4, seed=100, secure=True):
    sim, trace, stacks = build_line_network(n, seed=seed)
    authenticators = []
    for stack in stacks:
        keystore = KeyStore(stack.node_id)
        keystore.provision_network_key(NETWORK_KEY)
        authenticator = FrameAuthenticator(stack.mac, keystore)
        if secure:
            authenticator.enable()
        authenticators.append(authenticator)
    sim.run(until=180.0)
    return sim, trace, stacks, authenticators


class TestKeyStore:
    def test_network_key_fallback(self):
        keystore = KeyStore(1)
        keystore.provision_network_key(7)
        assert keystore.provisioned
        assert keystore.key_for(2) == 7
        assert keystore.key_for(3) == 7

    def test_unprovisioned(self):
        keystore = KeyStore(1)
        assert not keystore.provisioned
        assert keystore.key_for(2) is None


class TestTagging:
    def test_tag_depends_on_key_and_identity(self):
        assert compute_tag(1, 2, 3) != compute_tag(2, 2, 3)
        assert compute_tag(1, 2, 3) != compute_tag(1, 2, 4)
        assert compute_tag(1, 2, 3) == compute_tag(1, 2, 3)

    def test_invalid_mic_length_rejected(self):
        with pytest.raises(ValueError):
            AuthConfig(mic_bytes=3).validate()

    def test_enable_requires_keys(self):
        sim, trace, stacks = build_line_network(2, seed=101)
        authenticator = FrameAuthenticator(stacks[1].mac, KeyStore(1))
        with pytest.raises(RuntimeError):
            authenticator.enable()


class TestSecuredNetwork:
    def test_secured_network_still_converges_and_delivers(self):
        sim, trace, stacks, auths = secured_network()
        got = []
        stacks[0].bind(7, lambda d: got.append(d.src))
        stacks[3].send_datagram(0, 7, "secure", 10)
        sim.run(until=sim.now + 30.0)
        assert got == [3]
        assert all(a.frames_tagged > 0 for a in auths[1:])

    def test_auth_adds_frame_overhead(self):
        sim, trace, stacks, auths = secured_network()
        assert all(s.mac.auth_overhead_bytes == 4 for s in stacks)

    def test_unauthenticated_injection_blocked(self):
        sim, trace, stacks, auths = secured_network()
        hits = []
        stacks[3].bind(55, lambda d: hits.append(d.payload))
        attacker = CommandInjector(stacks[0].medium, 666, (70.0, 5.0))
        attacker.inject(victim=3, port=55, payload="OPEN_VALVE",
                        payload_bytes=8, spoof_src=0)
        sim.run(until=sim.now + 30.0)
        assert hits == []
        assert auths[3].frames_rejected >= 1

    def test_same_injection_succeeds_without_security(self):
        sim, trace, stacks, auths = secured_network(secure=False)
        hits = []
        stacks[3].bind(55, lambda d: hits.append(d.payload))
        attacker = CommandInjector(stacks[0].medium, 666, (70.0, 5.0))
        attacker.inject(victim=3, port=55, payload="OPEN_VALVE",
                        payload_bytes=8, spoof_src=0)
        sim.run(until=sim.now + 30.0)
        assert hits == ["OPEN_VALVE"]

    def test_wrong_key_rejected(self):
        sim, trace, stacks, auths = secured_network()
        # Re-key node 3 with a different key: its frames stop verifying.
        stacks[3].mac.frame_filter = None
        stacks[3].mac.auth_overhead_bytes = 0
        rogue_keys = KeyStore(3)
        rogue_keys.provision_network_key(0x1234)
        rogue = FrameAuthenticator(stacks[3].mac, rogue_keys)
        rogue.enable()
        got = []
        stacks[0].bind(7, lambda d: got.append(d.src))
        before = auths[2].frames_rejected
        stacks[3].send_datagram(0, 7, "x", 10)
        sim.run(until=sim.now + 30.0)
        assert got == []
        assert auths[2].frames_rejected > before

    def test_injection_campaign_counted(self):
        sim, trace, stacks, auths = secured_network()
        attacker = CommandInjector(stacks[0].medium, 666, (70.0, 5.0))
        for i in range(1, 10):
            sim.schedule(10.0 * i, (lambda: attacker.inject(3, 55, "X", 4)))
        sim.run(until=sim.now + 95.0)
        assert attacker.injections == 9


class TestAttackerIsObserved:
    def test_the_attackers_mac_counts_into_the_run_registry(self):
        # The nodes are never started, so no frame is acknowledged:
        # each injection ends as one failed MAC job after its retries.
        system = IIoTSystem.build(grid_topology(3),
                                  SystemConfig(observability=True), seed=1)
        victim = system.nodes[8]
        attacker = CommandInjector(system.medium, 666,
                                   (victim.position[0] + 8.0,
                                    victim.position[1] + 8.0))
        assert attacker.mac.trace is system.trace
        for k in range(5):
            system.sim.schedule(10.0 * k, lambda: attacker.inject(
                victim.node_id, 55, "X", 4))
        system.run(100.0)
        assert attacker.mac.stats.tx_failed == 5
        counters = system.obs.registry.snapshot().counters
        assert counters[("mac.tx", (("node", 666), ("ok", False)))] == 5.0


class TestDetector:
    def test_rejection_burst_raises_alarm(self):
        sim, trace, stacks, auths = secured_network()
        detector = AnomalyDetector(sim, trace, rejection_threshold=3,
                                   window_s=600.0)
        attacker = CommandInjector(stacks[0].medium, 666, (70.0, 5.0))
        for i in range(1, 20):
            sim.schedule(15.0 * i, (lambda: attacker.inject(3, 55, "X", 4)))
        sim.run(until=sim.now + 300.0)
        assert detector.alarms
        assert detector.alarms[0].kind == "auth_rejection_burst"
        assert detector.alarms[0].node == 3

    def test_quiet_network_raises_nothing(self):
        sim, trace, stacks, auths = secured_network(seed=102)
        detector = AnomalyDetector(sim, trace)
        sim.run(until=sim.now + 300.0)
        assert detector.alarms == []


class TestCryptoCost:
    def test_latency_scales_with_bytes(self, monkeypatch):
        model = CryptoCostModel(cycles_per_byte=100.0, cycles_per_frame=0.0)
        assert model.latency_s(100) == pytest.approx(0.00125)
        monkeypatch.setattr(crypto_cost, "MCU_MHZ", 1.0)
        assert model.latency_s(100) == pytest.approx(0.01)

    def test_software_slower_than_hardware(self):
        frame = 64
        assert SOFTWARE_AES_CLASS1.latency_s(frame) > HARDWARE_AES.latency_s(frame)

    def test_energy_uses_platform_currents(self):
        joules = SOFTWARE_AES_CLASS1.energy_j(64, CLASS_1_MOTE)
        assert joules > 0


class TestJammer:
    def test_jamming_degrades_delivery(self, monkeypatch):
        sim, trace, stacks, _ = secured_network(secure=False, seed=103)
        got = []
        stacks[0].bind(7, lambda d: got.append(1))
        # A deliberate jammer is an interferer turned to hostile settings.
        monkeypatch.setattr(interference, "BURST_AIRTIME_S", 0.004)
        jammer = WifiInterferer(stacks[0].medium, InterferenceClause(
            sim.now, 150.0, (30.0, 5.0), wifi_channel=6, duty_cycle=0.9,
            tx_power_dbm=20.0, node_id=777))
        jammer.start()
        for i in range(20):
            sim.schedule(sim.now + 5.0 * i,
                         (lambda: stacks[3].send_datagram(0, 7, "x", 10)))
        sim.run(until=sim.now + 150.0)
        jammed_deliveries = len(got)
        assert jammed_deliveries < 20
