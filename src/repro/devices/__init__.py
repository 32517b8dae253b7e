"""Device models for the sensing and actuation layer.

The paper's §II-B peculiarities live here: platform classes with real
resource envelopes (:mod:`repro.devices.platform`), radio-state energy
accounting and batteries (:mod:`repro.devices.energy`), sensors sampling
synthetic physical phenomena with noise/drift/stuck-at faults
(:mod:`repro.devices.sensors`, :mod:`repro.devices.phenomena`), and
actuators with rate limits and delays (:mod:`repro.devices.actuators`).
"""
