"""E11 — security: protection value vs resource price (paper §V-E).

Claims reproduced:

- without link-layer security "arbitrary faults can be injected":
  a keyless attacker's forged actuation commands reach the actuator;
- the standards' secure modes stop this, but they are "hardly
  implemented" because of resource constraints — quantified here as the
  per-frame byte overhead (airtime/energy) and the software-crypto CPU
  cost on a Class-1 mote, per MIC length.

Scenario: a secured 4-node network under a command-injection campaign,
swept over security level (off / MIC-32 / MIC-64 / MIC-128).
"""

from benchmarks._common import once, publish
from repro.devices.platform import CLASS_1_MOTE
from repro.net.packet import MAC_HEADER_BYTES
from repro.radio.medium import BITRATE_BPS, PHY_OVERHEAD_BYTES
from repro.security.attacks import CommandInjector
from repro.security.auth import AuthConfig, FrameAuthenticator
from repro.security.crypto_cost import SOFTWARE_AES_CLASS1
from repro.security.keys import KeyStore
from tests.conftest import build_line_network

NETWORK_KEY = 0xC0FFEE
PAYLOAD_BYTES = 24
INJECTIONS = 12


def _run(mic_bytes, seed):
    sim, trace, stacks = build_line_network(4, seed=seed)
    rejected_total = 0
    authenticators = []
    for stack in stacks:
        keystore = KeyStore(stack.node_id)
        keystore.provision_network_key(NETWORK_KEY)
        authenticator = FrameAuthenticator(
            stack.mac, keystore,
            config=AuthConfig(mic_bytes=mic_bytes or 4),
        )
        if mic_bytes:
            authenticator.enable()
        authenticators.append(authenticator)
    sim.run(until=240.0)

    # Legitimate telemetry must still work.
    delivered = set()
    stacks[0].bind(7, lambda d: delivered.add(d.payload))
    for i in range(20):
        sim.schedule(sim.now - sim.now + i * 5.0,
                     (lambda k: lambda: stacks[3].send_datagram(
                         0, 7, k, PAYLOAD_BYTES))(i))

    # The attack campaign against node 3's actuation port.
    applied = []
    stacks[3].bind(55, lambda d: applied.append(d.payload))
    attacker = CommandInjector(stacks[0].medium, 666, (70.0, 5.0))
    for i in range(INJECTIONS):
        sim.schedule(10.0 + i * 10.0,
                     (lambda: attacker.inject(3, 55, "OPEN", 8)))
    sim.run(until=sim.now + 250.0)

    frame_bytes = MAC_HEADER_BYTES + PAYLOAD_BYTES + (mic_bytes or 0)
    airtime_overhead = (mic_bytes or 0) / (
        PHY_OVERHEAD_BYTES + MAC_HEADER_BYTES + PAYLOAD_BYTES
    )
    crypto = SOFTWARE_AES_CLASS1
    return {
        "security": f"MIC-{mic_bytes * 8}" if mic_bytes else "off",
        "telemetry delivered": len(delivered) / 20,
        "injected applied": len(applied),
        "injected blocked": INJECTIONS - len(applied),
        "airtime overhead": airtime_overhead,
        "crypto CPU [ms/frame]": crypto.latency_s(frame_bytes) * 1000,
        "crypto energy [uJ/frame]": crypto.energy_j(
            frame_bytes, CLASS_1_MOTE) * 1e6,
    }


def run_e11():
    rows = []
    for mic_bytes in (0, 4, 8, 16):
        rows.append(_run(mic_bytes, seed=131))
    # The 'off' row pays no crypto at all.
    rows[0]["crypto CPU [ms/frame]"] = 0.0
    rows[0]["crypto energy [uJ/frame]"] = 0.0
    rows[0]["airtime overhead"] = 0.0
    return rows


def bench_e11_security_overhead(benchmark):
    rows = once(benchmark, run_e11)
    publish("e11_security_overhead",
            "E11 (paper s V-E): command injection vs link-layer security "
            "level, with the resource price of protection", rows)
    off = rows[0]
    secured = rows[1:]
    # Without security the attacker owns the actuator.
    assert off["injected applied"] == INJECTIONS
    # With any MIC, every forgery dies at the MAC filter...
    for row in secured:
        assert row["injected applied"] == 0, row["security"]
        # ...while legitimate traffic keeps flowing.
        assert row["telemetry delivered"] >= 0.9
    # And the price grows with the security level.
    overheads = [row["airtime overhead"] for row in rows]
    assert overheads == sorted(overheads)
    assert secured[-1]["crypto energy [uJ/frame]"] > 0
