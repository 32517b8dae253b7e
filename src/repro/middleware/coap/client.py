"""CoAP client: token-matched requests and responses."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.middleware.coap.codes import CoapCode
from repro.middleware.coap.message import CoapMessage
from repro.middleware.coap.transport import CoapTransport
from repro.sim.timers import Timer

ResponseCallback = Callable[[Optional[CoapMessage]], None]

#: Give the server this long end-to-end before reporting failure; read
#: at run time (a test patches it).
REQUEST_TIMEOUT_S = 60.0


@dataclass
class PendingRequest:
    """An in-flight request awaiting its response."""

    dest: int
    message: CoapMessage
    callback: ResponseCallback
    timer: Timer
    #: The root ``coap.request`` span (repro.obs); None untraced.
    ctx: Any = None


class CoapClient:
    """Issues requests over a transport; responses return by token."""

    COUNTED = (("coap.timeout", {}, "timeouts"),)

    def __init__(self, transport: CoapTransport) -> None:
        self.transport = transport
        self.sim = transport.sim
        self.trace = transport.trace
        self.node_id = transport.stack.node_id
        self._pending: Dict[int, PendingRequest] = {}
        self.requests_sent = 0
        self.responses_received = 0
        self.timeouts = 0
        self.trace.add_reader(self, self.node_id, self.COUNTED)
        previous = transport.on_message

        def chained(src: int, message: CoapMessage) -> None:
            if message.code.is_response:
                self._handle_response(src, message)
            elif previous is not None:
                previous(src, message)

        transport.on_message = chained

    # ------------------------------------------------------------------
    def _open_span(self, dest: int, method: str, path: str) -> Any:
        """Root span for one request's end-to-end journey (repro.obs)."""
        obs = self.trace.obs
        if obs is None:
            return None
        obs.registry.inc("coap.request", node=self.node_id, method=method)
        return obs.spans.start(None, "coap.request", node=self.node_id,
                               t=self.sim.now, dest=dest, method=method,
                               path=path)

    def _close_span(self, pending: PendingRequest, ok: bool) -> None:
        obs = self.trace.obs
        if obs is not None:
            obs.spans.finish(pending.ctx, self.sim.now, ok=ok)

    # ------------------------------------------------------------------
    def request(
        self,
        dest: int,
        code: CoapCode,
        path: str,
        callback: ResponseCallback,
        payload: Any = None,
        payload_bytes: int = 0,
    ) -> CoapMessage:
        """Send a confirmable request; ``callback(response_or_None)``
        fires once."""
        message = CoapMessage.request(self.sim, code, path, payload,
                                      payload_bytes)
        pending = PendingRequest(
            dest, message, callback,
            Timer(self.sim, lambda: self._timeout(message.token)),
            self._open_span(dest, code.name, path))
        self._pending[message.token] = pending
        pending.timer.start(REQUEST_TIMEOUT_S)
        self.requests_sent += 1
        self.transport.send(
            dest, message, on_fail=lambda: self._timeout(message.token),
            trace_ctx=pending.ctx,
        )
        return message

    def get(self, dest: int, path: str, callback: ResponseCallback) -> CoapMessage:
        """Convenience GET."""
        return self.request(dest, CoapCode.GET, path, callback)

    def put(self, dest: int, path: str, payload: Any, payload_bytes: int,
            callback: ResponseCallback) -> CoapMessage:
        """Convenience PUT."""
        return self.request(
            dest, CoapCode.PUT, path, callback,
            payload=payload, payload_bytes=payload_bytes,
        )

    # ------------------------------------------------------------------
    def _handle_response(self, src: int, response: CoapMessage) -> None:
        token = response.token
        if token is None:
            return
        pending = self._pending.pop(token, None)
        if pending is None:
            return
        pending.timer.cancel()
        self.responses_received += 1
        self.trace.emit(self.sim.now, "coap.response", node=self.node_id,
                        src=src, token=token)
        obs = self.trace.obs
        if obs is not None:
            obs.registry.inc("coap.response", node=self.node_id)
        self._close_span(pending, ok=True)
        pending.callback(response)

    def _timeout(self, token: int) -> None:
        pending = self._pending.pop(token, None)
        if pending is None:
            return
        pending.timer.cancel()
        self.timeouts += 1
        self._close_span(pending, ok=False)
        pending.callback(None)
