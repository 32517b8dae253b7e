"""CoAP server: request dispatch, each response piggybacked in the
request's ACK."""

from __future__ import annotations

from typing import Dict

from repro.middleware.coap.codes import CoapCode
from repro.middleware.coap.message import CoapMessage
from repro.middleware.coap.resource import Resource
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
        return resource

    # ------------------------------------------------------------------
    def _handle_request(self, src: int, request: CoapMessage) -> None:
        self.requests_served += 1
        resource = self.resources.get(request.options.path)
        if resource is None:
            response = request.response(CoapCode.NOT_FOUND)
        else:
            response = request.response(
                *resource.dispatch(request.code, request.payload))
        self.transport.record_ack(src, request, response)
        self.transport.send(src, response)
