"""A CoAP (RFC 7252) implementation over the simulated stack.

Layering follows the RFC: a *message layer* providing optional
reliability (CON/ACK with exponential retransmission, duplicate
rejection) below a *request/response layer* matching responses to
requests by token, with piggybacked responses in ACKs.  Observe
(RFC 7641) provides the publish/subscribe pattern industrial telemetry
wants.
"""

from repro.middleware.coap.client import CoapClient, PendingRequest
from repro.middleware.coap.codes import CoapCode, CoapType
from repro.middleware.coap.message import CoapMessage, CoapOptions
from repro.middleware.coap.resource import ObservableResource, Resource
from repro.middleware.coap.server import CoapServer
from repro.middleware.coap.transport import CoapTransport

__all__ = [
    "CoapClient",
    "CoapCode",
    "CoapMessage",
    "CoapOptions",
    "CoapServer",
    "CoapTransport",
    "CoapType",
    "ObservableResource",
    "PendingRequest",
    "Resource",
]
