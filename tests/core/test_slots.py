"""Slots census: which hot per-event objects carry no instance ``__dict__``.

Each class below is built once per event, frame, packet or timer, so a
``__dict__`` on it is memory and attribute-lookup cost paid on every
one (DESIGN.md, "Hot single-trial paths").  ``Radio`` and ``MacLayer``
keep theirs on purpose: the layered benchmark's traced pass
(``benchmarks/layers/trace.py::_Hook``) shadows their ``on_receive``
with a class-level descriptor that stores the raw and the traced
callback in the instance ``__dict__``.
"""

from array import array

from repro.net.fragmentation import Fragment
from repro.net.mac.base import _TxJob
from repro.net.mac.csma import CsmaMac
from repro.net.packet import Datagram, FrameKind, MacFrame, NetPacket
from repro.radio.medium import (
    Frame, Medium, Radio, _Neighborhood, _Transmission)
from repro.radio.propagation import UnitDiskModel
from repro.sim.kernel import Simulator
from repro.sim.timers import PeriodicTimer, Timer
from repro.sim.trace import TraceLog


def _slotted(sim: Simulator) -> dict:
    medium = Medium(sim, UnitDiskModel(radius_m=25.0), TraceLog())
    radio = Radio(medium, 1, (0.0, 0.0))
    frame = Frame(payload=None, size_bytes=10, channel=26, sender=1)
    return {
        "EventHandle": sim.schedule(1.0, lambda: None),
        "Timer": Timer(sim, lambda: None),
        "PeriodicTimer": PeriodicTimer(sim, 1.0, lambda: None, phase=0.0),
        "Frame": frame,
        "MacFrame": MacFrame(FrameKind.DATA, 1, 2, 1),
        "NetPacket": NetPacket(1, 2, None, 0),
        "Datagram": Datagram(1, 7, 2, 7, None, 0),
        "Fragment": Fragment(tag=1, index=0, count=2, total_bytes=150,
                             chunk_bytes=98),
        "_TxJob": _TxJob(dest=2, payload=None, payload_bytes=0, done=None,
                         seq=1),
        "_Transmission": _Transmission(radio, frame, 0.0, 1.0, None, None),
        "_Neighborhood": _Neighborhood([], array("d"), {}),
    }


def test_hot_objects_have_no_instance_dict():
    with_dict = [name for name, obj in _slotted(Simulator()).items()
                 if hasattr(obj, "__dict__")]
    assert with_dict == []


def test_radio_and_mac_keep_their_instance_dict():
    # benchmarks/layers/trace.py::_Hook keeps the traced on_receive in
    # obj.__dict__; slotting these classes would break the traced pass.
    sim = Simulator()
    medium = Medium(sim, UnitDiskModel(radius_m=25.0), TraceLog())
    radio = Radio(medium, 1, (0.0, 0.0))
    mac = CsmaMac(radio)
    assert hasattr(radio, "__dict__")
    assert hasattr(mac, "__dict__")
