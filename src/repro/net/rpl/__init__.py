"""RPL-like routing for low-power and lossy networks.

An event-level implementation of the routing machinery the paper leans
on (§IV-B, §V-D; refs [14], [32], [44], [45]):

- :mod:`repro.net.rpl.trickle` — the Trickle timer (RFC 6206) governing
  DIO beaconing;
- :mod:`repro.net.rpl.objective` — OF0 (hop count) and MRHOF (ETX)
  objective functions with parent-switch hysteresis;
- :mod:`repro.net.rpl.neighbors` — EWMA ETX link estimation;
- :mod:`repro.net.rpl.dodag` — DODAG formation, parent selection, DAO
  reporting, poisoning, local repair, floating DODAGs under
  partition;
- :mod:`repro.net.rpl.rnfd` — RNFD, the parallel root-failure detector
  of ref [32], reproduced for experiment E5.
"""
