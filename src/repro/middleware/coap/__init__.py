"""A CoAP (RFC 7252) implementation over the simulated stack.

Layering follows the RFC: a *message layer*
(:mod:`repro.middleware.coap.transport`, over the wire format of
:mod:`repro.middleware.coap.message` and :mod:`repro.middleware.coap.codes`)
providing reliability (CON/ACK with exponential retransmission,
duplicate rejection) below a *request/response layer*
(:mod:`repro.middleware.coap.client`, :mod:`repro.middleware.coap.server`,
:mod:`repro.middleware.coap.resource`) matching responses to requests by
token.  Every request is confirmable and every response rides in its
ACK.
"""
