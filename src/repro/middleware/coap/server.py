"""CoAP server: request dispatch and Observe notification fan-out."""

from __future__ import annotations

from typing import Dict, Optional

from repro.middleware.coap.codes import CoapCode, CoapType
from repro.middleware.coap.message import CoapMessage, CoapOptions, next_message_id
from repro.middleware.coap.resource import ObservableResource, Resource
from repro.middleware.coap.transport import CoapTransport


class CoapServer:
    """Serves a resource tree over one transport.

    The server and a :class:`~repro.middleware.coap.client.CoapClient`
    can share a transport (typical for peers that both expose and
    consume resources): the server claims request messages, the client
    claims responses.
    """

    def __init__(self, transport: CoapTransport) -> None:
        self.transport = transport
        self.sim = transport.sim
        self.trace = transport.trace
        self.resources: Dict[str, Resource] = {}
        self.requests_served = 0
        previous = transport.on_message

        def chained(src: int, message: CoapMessage) -> None:
            if message.code.is_request:
                self._handle_request(src, message)
            elif previous is not None:
                previous(src, message)

        transport.on_message = chained

    # ------------------------------------------------------------------
    def add_resource(self, resource: Resource) -> Resource:
        """Register a resource at its path."""
        if resource.path in self.resources:
            raise ValueError(f"path {resource.path} already served")
        self.resources[resource.path] = resource
        if isinstance(resource, ObservableResource):
            resource.notify_hook = self._notify_observers
        return resource

    # ------------------------------------------------------------------
    def _handle_request(self, src: int, request: CoapMessage) -> None:
        self.requests_served += 1
        resource = self.resources.get(request.options.path)
        if resource is None:
            response = request.response(CoapCode.NOT_FOUND,
                                        sim=self.sim)
            self._respond(src, request, response)
            return

        observe_seq: Optional[int] = None
        if (
            isinstance(resource, ObservableResource)
            and request.code is CoapCode.GET
            and request.options.observe is not None
        ):
            if request.options.observe == 0:
                resource.add_observer(src, request.token or 0)
                observe_seq = resource.sequence
                self.trace.emit(self.sim.now, "coap.observe_register",
                                node=self.transport.stack.node_id, observer=src)
            else:
                resource.remove_observer(src, request.token or 0)

        code, payload, size = resource.dispatch(request.code, request.payload)
        response = request.response(code, payload, size, observe=observe_seq,
                                    sim=self.sim)
        self._respond(src, request, response)

    def _respond(self, src: int, request: CoapMessage,
                 response: CoapMessage) -> None:
        if request.mtype is CoapType.CON and response.mtype is CoapType.ACK:
            self.transport.record_ack(src, request, response)
        self.transport.send(src, response)

    # ------------------------------------------------------------------
    def _notify_observers(self, resource: ObservableResource) -> None:
        for node, token in resource.observers:
            notification = CoapMessage(
                mtype=CoapType.NON,
                code=CoapCode.CONTENT,
                message_id=next_message_id(self.sim),
                token=token,
                options=CoapOptions(observe=resource.sequence),
                payload=resource.state,
                payload_bytes=resource.size_bytes,
            )
            self.transport.send(node, notification)
