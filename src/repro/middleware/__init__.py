"""Middleware for interoperability (paper §III).

The paper argues that standardization alone does not deliver
interoperability — middleware does.  This package provides both halves
of that argument:

- :mod:`repro.middleware.coap` — the Constrained Application Protocol,
  the paper's *textbook example of a middleware protocol* (§III-B,
  ref [15]): message layer with CON retransmission and deduplication,
  request/response with tokens, resources, and Observe;
- :mod:`repro.middleware.adapters` — protocol adapters wrapping legacy
  industrial devices (Modbus-like register maps, a proprietary ASCII
  protocol) behind the same resource abstraction;
- :mod:`repro.middleware.gateway` — the integration gateway: a resource
  directory plus uniform northbound access to native and legacy devices,
  the artifact experiment E12 measures.
"""
