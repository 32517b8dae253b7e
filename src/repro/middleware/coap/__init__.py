"""A CoAP (RFC 7252) implementation over the simulated stack.

Layering follows the RFC: a *message layer*
(:mod:`repro.middleware.coap.transport`, over the wire format of
:mod:`repro.middleware.coap.message` and :mod:`repro.middleware.coap.codes`)
providing optional reliability (CON/ACK with exponential
retransmission, duplicate rejection) below a *request/response layer*
(:mod:`repro.middleware.coap.client`, :mod:`repro.middleware.coap.server`)
matching responses to requests by token, with piggybacked responses in
ACKs.  Observe (RFC 7641, :mod:`repro.middleware.coap.resource`)
provides the publish/subscribe pattern industrial telemetry wants.
"""
