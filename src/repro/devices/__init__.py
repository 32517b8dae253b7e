"""Device models for the sensing and actuation layer.

The paper's §II-B peculiarities live here: platform classes with real
resource envelopes (:mod:`repro.devices.platform`), radio-state energy
accounting and batteries (:mod:`repro.devices.energy`), sensors sampling
synthetic physical phenomena with noise/drift/stuck-at faults
(:mod:`repro.devices.sensors`, :mod:`repro.devices.phenomena`), and
actuators with rate limits and delays (:mod:`repro.devices.actuators`).
"""

from repro.devices.actuators import Actuator, ActuatorCommand
from repro.devices.energy import Battery, EnergyMeter
from repro.devices.inference import (
    InferencePartitioner,
    Layer,
    PartitionCost,
    example_keyword_spotting_model,
)
from repro.devices.node import DeviceNode
from repro.devices.phenomena import DiurnalField, Phenomenon, RandomWalkField
from repro.devices.platform import (
    CLASS_0_MOTE,
    CLASS_1_MOTE,
    CLASS_2_GATEWAY,
    PLATFORMS,
    PlatformProfile,
)
from repro.devices.sensors import Sensor, SensorFault

__all__ = [
    "Actuator",
    "ActuatorCommand",
    "Battery",
    "CLASS_0_MOTE",
    "CLASS_1_MOTE",
    "CLASS_2_GATEWAY",
    "DeviceNode",
    "DiurnalField",
    "EnergyMeter",
    "InferencePartitioner",
    "Layer",
    "PartitionCost",
    "example_keyword_spotting_model",
    "PLATFORMS",
    "Phenomenon",
    "PlatformProfile",
    "RandomWalkField",
    "Sensor",
    "SensorFault",
]
