"""CoAP middleware invariants (RFC 7252 semantics).

Watches the CoAP layer's trace records:

- ``coap.response`` — emitted by the client exactly when a request
  callback fires with an actual response.  A confirmable request is
  answered **at most once** per token; seeing the same token answered
  twice means the token-matching/dedup chain leaked a duplicate to the
  application.
- ``coap.retransmit`` — the transport may retransmit a confirmable
  message at most ``MAX_RETRANSMIT`` times before declaring failure.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.checking.base import InvariantChecker
from repro.sim.trace import TraceRecord


class CoapExchangeChecker(InvariantChecker):
    """Request/response and retransmission invariants."""

    name = "coap"

    def __init__(self) -> None:
        super().__init__()
        #: (client node, token) -> completed-response count.
        self._responses: Dict[Tuple[int, int], int] = {}
        self.exchanges_watched = 0

    def _setup(self) -> None:
        self.subscribe("coap.response", self._on_response)
        self.subscribe("coap.retransmit", self._on_retransmit)

    # ------------------------------------------------------------------
    def _on_response(self, record: TraceRecord) -> None:
        token = record.data.get("token")
        if token is None:
            return
        key = (record.node, token)
        count = self._responses.get(key, 0) + 1
        self._responses[key] = count
        if count == 1:
            self.exchanges_watched += 1
        else:
            self.record("response_not_at_most_once", node=record.node,
                        token=token, deliveries=count,
                        src=record.data.get("src"))

    def _on_retransmit(self, record: TraceRecord) -> None:
        retries = record.data.get("retries")
        limit = record.data.get("max_retransmit")
        if retries is None or limit is None:
            return
        if retries > limit:
            self.record("retransmit_limit_exceeded", node=record.node,
                        retries=retries, max_retransmit=limit,
                        dest=record.data.get("dest"))
