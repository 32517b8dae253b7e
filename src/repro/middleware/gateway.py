"""The integration gateway: one namespace over heterogeneous devices.

Runs on the border router.  Native constrained devices register their
CoAP resources in the :class:`ResourceDirectory` (the CoRE RD pattern);
legacy devices are wired in through protocol adapters.  Northbound —
toward the application-logic tier of Fig. 1 — everything is a uniform
``read(target, point)`` (a native device answers a CoAP GET) and a
legacy device also takes ``write(target, point, value)``, which is the
middleware value proposition §III-B describes and experiment E12
measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.middleware.adapters.base import ProtocolAdapter
from repro.middleware.coap.client import CoapClient
from repro.middleware.coap.codes import CoapCode
from repro.middleware.coap.message import CoapMessage
from repro.middleware.coap.resource import Resource
from repro.middleware.coap.server import CoapServer
from repro.middleware.coap.transport import CoapTransport
from repro.net.stack import NetworkStack


@dataclass(frozen=True)
class RdEntry:
    """One registered resource of a native device."""

    node: int
    path: str


class ResourceDirectory(Resource):
    """CoRE-RD-style registry, itself exposed as a CoAP resource.

    Devices POST their resource list to ``/rd``; the gateway reads
    :meth:`nodes` and ``entries`` directly, so ``/rd`` answers no GET.
    """

    def __init__(self) -> None:
        super().__init__("/rd")
        self.entries: Dict[Tuple[int, str], RdEntry] = {}
        self.registrations = 0

    def handle_post(self, payload: Any) -> Tuple[CoapCode, Any, int]:
        if not isinstance(payload, dict) or "node" not in payload:
            return (CoapCode.BAD_REQUEST, None, 0)
        node = payload["node"]
        for path in payload.get("paths", ()):
            entry = RdEntry(node=node, path=path)
            self.entries[(node, path)] = entry
        self.registrations += 1
        return (CoapCode.CREATED, None, 0)

    def nodes(self) -> List[int]:
        return sorted({entry.node for entry in self.entries.values()})


class Gateway:
    """The border router's middleware service."""

    def __init__(self, stack: NetworkStack) -> None:
        if not stack.is_root:
            raise ValueError("the gateway must run on the border router")
        self.stack = stack
        self.sim = stack.sim
        self.trace = stack.trace
        self.transport = CoapTransport(stack)
        self.server = CoapServer(self.transport)
        self.client = CoapClient(self.transport)
        self.directory = ResourceDirectory()
        self.server.add_resource(self.directory)
        self.adapters: Dict[str, ProtocolAdapter] = {}
        self.reads = 0
        self.writes = 0

    # ------------------------------------------------------------------
    # southbound attachment
    # ------------------------------------------------------------------
    def attach_legacy(self, name: str, adapter: ProtocolAdapter) -> None:
        """Wire a legacy device in through its protocol adapter."""
        if name in self.adapters:
            raise ValueError(f"legacy device {name!r} already attached")
        self.adapters[name] = adapter
        self.trace.emit(self.sim.now, "gateway.legacy_attached",
                        node=self.stack.node_id, name=name,
                        protocol=adapter.protocol)

    # ------------------------------------------------------------------
    # northbound uniform access
    # ------------------------------------------------------------------
    def targets(self) -> List[str]:
        """Every addressable target: native node ids and legacy names."""
        native = [f"native/{node}" for node in self.directory.nodes()]
        legacy = [f"legacy/{name}" for name in sorted(self.adapters)]
        return native + legacy

    def read(
        self,
        target: str,
        point: str,
        callback: Callable[[Optional[float]], None],
    ) -> None:
        """Read ``point`` on ``target`` ("native/<id>" or "legacy/<name>")."""
        self.reads += 1
        kind, _, ident = target.partition("/")
        if kind == "legacy":
            adapter = self._adapter(ident)
            adapter.read_point(point, callback)
            return
        if kind == "native":
            def on_response(response: Optional[CoapMessage]) -> None:
                if response is None or not response.code.is_success:
                    callback(None)
                else:
                    callback(response.payload)

            self.client.get(int(ident), point, on_response)
            return
        raise ValueError(f"unknown target kind in {target!r}")

    def write(
        self,
        target: str,
        point: str,
        value: float,
        callback: Callable[[bool], None],
    ) -> None:
        """Write ``value`` to ``point`` on ``target`` ("legacy/<name>")."""
        kind, _, ident = target.partition("/")
        if kind != "legacy":
            raise ValueError(f"only a legacy target is writable: {target!r}")
        self.writes += 1
        self._adapter(ident).write_point(point, value, callback)

    def _adapter(self, name: str) -> ProtocolAdapter:
        adapter = self.adapters.get(name)
        if adapter is None:
            raise KeyError(f"no legacy device {name!r} attached")
        return adapter


def pairwise_integration_cost(n_systems: int) -> int:
    """Translators needed for direct pairwise integration: n(n-1)/2."""
    if n_systems < 0:
        raise ValueError("n_systems must be non-negative")
    return n_systems * (n_systems - 1) // 2


def middleware_integration_cost(n_systems: int) -> int:
    """Adapters needed with a common middleware abstraction: n."""
    if n_systems < 0:
        raise ValueError("n_systems must be non-negative")
    return n_systems
