"""Legacy-protocol adapters (paper §III).

Industrial IoT systems "have to operate with legacy components,
sometimes in ways that were not envisioned by the creators of those
components".  These modules model two such component families — a
Modbus-like register-map fieldbus device
(:mod:`repro.middleware.adapters.modbus`) and a proprietary
ASCII-over-serial controller (:mod:`repro.middleware.adapters.proprietary`)
— and the adapters that lift each behind the uniform point abstraction
of :mod:`repro.middleware.adapters.base` the gateway serves.
"""
