"""Low-power wireless radio substrate.

Models the physical layer that the paper's sensing-and-actuation layer
lives on: log-distance path-loss propagation with per-link shadowing
(:mod:`repro.radio.propagation`), a shared broadcast medium with
collision and capture semantics (:mod:`repro.radio.medium`), the 2.4 GHz
channel plan shared by 802.15.4 and Wi-Fi (:mod:`repro.radio.channels`),
and synthetic interferer processes for the administrative-scalability
coexistence experiments (:mod:`repro.radio.interference`).
"""
