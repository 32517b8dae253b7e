"""Medium-access protocols for duty-cycled low-power radios.

The paper's geographic-scalability argument (§IV-B) hinges on MAC-layer
behaviour: duty-cycled MACs trade idle-listening energy for per-hop
latency (refs [26], [27]), while tightly synchronized schemes recover
the latency at a coordination cost (refs [28]–[30]).  This package
implements one representative of each family over the shared MAC
machinery of :mod:`repro.net.mac.base`:

- :mod:`repro.net.mac.csma` — always-on CSMA/CA: minimal latency,
  maximal idle listening (the energy-unconstrained baseline);
- :mod:`repro.net.mac.lpl` — low-power listening (BoX-MAC-2 style
  sender strobe);
- :mod:`repro.net.mac.rimac` — receiver-initiated beacons (RI-MAC
  style);
- :mod:`repro.net.mac.tsch` — TSCH-style scheduled slotframe
  (:mod:`repro.net.mac.schedule`) with 6P-negotiated cells
  (:mod:`repro.net.mac.sixp`), the 6TiSCH industrial baseline;
- :mod:`repro.net.mac.syncflood` — Glossy/Dozer-style synchronous
  flooding, modelled at slot granularity;
- :mod:`repro.net.mac.analysis` — closed-form expectations and the
  per-MAC summary lines the dashboard prints.
"""
