"""The coordination-based (CP) baseline store for experiment E9.

A single authoritative copy lives at the border router; every read and
write is a round trip through the DODAG.  Strong consistency for free —
until the network partitions, at which point clients on the wrong side
time out: the CAP consequence §V-C spells out for always-on industrial
systems.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.net.stack import NetworkStack
from repro.sim.timers import Timer

#: Ports for the request/response pair.
STORE_PORT = 9902
#: How long a client waits for the coordinator's answer before it counts
#: the operation as failed, in sim seconds.
REQUEST_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class StoreRequest:
    """A client operation shipped to the coordinator."""

    request_id: int
    client: int
    op: str  # "get" | "put"
    key: Any
    value: Any = None

    SIZE_BYTES = 16

    @property
    def size_bytes(self) -> int:
        return self.SIZE_BYTES


@dataclass(frozen=True)
class StoreResponse:
    """The coordinator's answer."""

    request_id: int
    ok: bool
    value: Any = None

    SIZE_BYTES = 12

    @property
    def size_bytes(self) -> int:
        return self.SIZE_BYTES


class CoordinatedStore:
    """The authoritative copy, hosted on the root node."""

    def __init__(self, stack: NetworkStack) -> None:
        if not stack.is_root:
            raise ValueError("the coordinated store must run on the root")
        self.stack = stack
        self.data: Dict[Any, Any] = {}
        self.operations_served = 0
        stack.bind(STORE_PORT, self._on_request)

    def _on_request(self, datagram: Any) -> None:
        request = datagram.payload
        if not isinstance(request, StoreRequest):
            return
        self.operations_served += 1
        if request.op == "put":
            self.data[request.key] = request.value
            response = StoreResponse(request.request_id, ok=True)
        elif request.op == "get":
            value = self.data.get(request.key)
            response = StoreResponse(request.request_id, ok=True, value=value)
        else:
            response = StoreResponse(request.request_id, ok=False)
        self.stack.send_datagram(
            request.client, STORE_PORT, response, response.size_bytes
        )


class StoreClient:
    """A node-side client of the coordinated store.

    Operations complete with ``callback(ok, value)``; a timeout counts
    as unavailability — the metric E9 reports.
    """

    def __init__(self, stack: NetworkStack, coordinator: int) -> None:
        self.stack = stack
        self.sim = stack.sim
        self.coordinator = coordinator
        self.operations = 0
        self.successes = 0
        self.failures = 0
        self._pending: Dict[int, tuple] = {}
        stack.bind(STORE_PORT, self._on_response)

    def put(self, key: Any, value: Any,
            callback: Optional[Callable[[bool, Any], None]] = None) -> None:
        """Write through the coordinator."""
        self._issue("put", key, value, callback)

    def get(self, key: Any,
            callback: Optional[Callable[[bool, Any], None]] = None) -> None:
        """Read through the coordinator."""
        self._issue("get", key, None, callback)

    def _issue(self, op: str, key: Any, value: Any,
               callback: Optional[Callable[[bool, Any], None]]) -> None:
        request = StoreRequest(
            request_id=self.sim.next_id("store.request"),
            client=self.stack.node_id,
            op=op, key=key, value=value,
        )
        self.operations += 1
        timer = Timer(self.sim, lambda: self._timeout(request.request_id))
        self._pending[request.request_id] = (callback, timer)
        timer.start(REQUEST_TIMEOUT_S)
        self.stack.send_datagram(
            self.coordinator, STORE_PORT, request, request.size_bytes
        )

    def _on_response(self, datagram: Any) -> None:
        response = datagram.payload
        if not isinstance(response, StoreResponse):
            return
        pending = self._pending.pop(response.request_id, None)
        if pending is None:
            return
        callback, timer = pending
        timer.cancel()
        self.successes += 1
        if callback is not None:
            callback(response.ok, response.value)

    def _timeout(self, request_id: int) -> None:
        pending = self._pending.pop(request_id, None)
        if pending is None:
            return
        callback, _timer = pending
        self.failures += 1
        if callback is not None:
            callback(False, None)

    @property
    def availability(self) -> float:
        """Fraction of completed operations that succeeded."""
        done = self.successes + self.failures
        return self.successes / done if done else 1.0
