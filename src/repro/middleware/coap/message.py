"""CoAP message representation with size accounting.

Messages are kept as structured objects (the simulator does not
serialize), but :attr:`CoapMessage.size_bytes` charges what the RFC 7252
encoding would cost, so middleware overhead shows up honestly in airtime
and energy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Tuple

from repro.middleware.coap.codes import CoapCode, CoapType
from repro.sim.kernel import Simulator


def next_message_id(sim: Simulator) -> int:
    """Allocate a message id of the run ``sim`` drives (16-bit space,
    wrapped)."""
    return sim.next_id("coap.message_id") & 0xFFFF


@dataclass(frozen=True)
class CoapOptions:
    """The option subset the reproduction uses."""

    uri_path: Tuple[str, ...] = ()
    content_format: Optional[str] = None
    #: RFC 7641 Observe option: 0 = register, 1 = deregister,
    #: other values = notification sequence numbers.
    observe: Optional[int] = None
    max_age_s: Optional[float] = None

    @property
    def path(self) -> str:
        return "/" + "/".join(self.uri_path)

    @property
    def size_bytes(self) -> int:
        size = sum(1 + len(segment) for segment in self.uri_path)
        if self.content_format is not None:
            size += 2
        if self.observe is not None:
            size += 4
        if self.max_age_s is not None:
            size += 5
        return size


@dataclass(frozen=True)
class CoapMessage:
    """One CoAP message (any direction, any layer role)."""

    mtype: CoapType
    code: CoapCode
    message_id: int
    token: Optional[int] = None
    options: CoapOptions = field(default_factory=CoapOptions)
    payload: Any = None
    payload_bytes: int = 0

    #: Fixed header: version/type/token-length + code + message id.
    HEADER_BYTES = 4
    TOKEN_BYTES = 2

    @property
    def size_bytes(self) -> int:
        size = self.HEADER_BYTES + self.options.size_bytes
        if self.token is not None:
            size += self.TOKEN_BYTES
        if self.payload_bytes:
            size += 1 + self.payload_bytes  # 0xFF payload marker
        return size

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @staticmethod
    def request(
        sim: Simulator,
        code: CoapCode,
        path: str,
        payload: Any = None,
        payload_bytes: int = 0,
        confirmable: bool = True,
        observe: Optional[int] = None,
    ) -> "CoapMessage":
        """Build a fresh request with a new message id and token from
        the id spaces of the run ``sim`` drives."""
        if not code.is_request:
            raise ValueError(f"{code} is not a request code")
        segments = tuple(s for s in path.split("/") if s)
        return CoapMessage(
            mtype=CoapType.CON if confirmable else CoapType.NON,
            code=code,
            message_id=next_message_id(sim),
            token=sim.next_id("coap.token"),
            options=CoapOptions(uri_path=segments, observe=observe),
            payload=payload,
            payload_bytes=payload_bytes,
        )

    def ack(self) -> "CoapMessage":
        """Empty ACK for this confirmable message."""
        return CoapMessage(
            mtype=CoapType.ACK, code=CoapCode.EMPTY, message_id=self.message_id
        )

    def response(
        self,
        code: CoapCode,
        payload: Any = None,
        payload_bytes: int = 0,
        piggyback: bool = True,
        observe: Optional[int] = None,
        sim: Optional[Simulator] = None,
    ) -> "CoapMessage":
        """Build a response to this request.

        A piggybacked response rides in the ACK (same message id); a
        separate response gets its own id, from the run ``sim`` drives,
        and CON/NON type.
        """
        if not code.is_response:
            raise ValueError(f"{code} is not a response code")
        if piggyback and self.mtype is CoapType.CON:
            mtype, message_id = CoapType.ACK, self.message_id
        else:
            if sim is None:
                raise ValueError("a separate response needs sim for its "
                                 "own message id")
            mtype, message_id = CoapType.NON, next_message_id(sim)
        return CoapMessage(
            mtype=mtype,
            code=code,
            message_id=message_id,
            token=self.token,
            options=CoapOptions(observe=observe),
            payload=payload,
            payload_bytes=payload_bytes,
        )
