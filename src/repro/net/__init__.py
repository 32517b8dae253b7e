"""Constrained-device network stack.

The stack mirrors what runs on real sensing-and-actuation-layer devices:

- :mod:`repro.net.packet` — frame/datagram formats with byte accounting;
- :mod:`repro.net.mac` — medium-access protocols: always-on CSMA, BoX-MAC
  style low-power listening, RI-MAC style receiver-initiated, and a
  Glossy-style synchronous-flooding primitive;
- :mod:`repro.net.rpl` — an RPL-like routing layer (Trickle, DODAG
  formation, MRHOF/OF0, repair), RNFD root-failure detection, and
  partition handling;
- :mod:`repro.net.stack` — the per-node stack binding radio, MAC,
  routing, and a UDP-like socket API together.
"""
