"""CoAP resources: the server-side programming model.

A :class:`Resource` answers GET and POST through the handlers a
subclass overrides; a :class:`CallbackResource` answers GET from a plain
callable.  Any other method is answered METHOD_NOT_ALLOWED.
"""

from __future__ import annotations

from typing import Any, Callable, Tuple

from repro.middleware.coap.codes import CoapCode


class Resource:
    """A REST resource at a fixed path.

    Subclasses override the ``handle_*`` methods; each returns
    ``(code, payload, payload_bytes)``.
    """

    def __init__(self, path: str) -> None:
        self.path = "/" + "/".join(s for s in path.split("/") if s)

    def handle_get(self, payload: Any) -> Tuple[CoapCode, Any, int]:
        return (CoapCode.METHOD_NOT_ALLOWED, None, 0)

    def handle_post(self, payload: Any) -> Tuple[CoapCode, Any, int]:
        return (CoapCode.METHOD_NOT_ALLOWED, None, 0)

    def dispatch(self, code: CoapCode, payload: Any) -> Tuple[CoapCode, Any, int]:
        """Route a request method to its handler."""
        handlers = {
            CoapCode.GET: self.handle_get,
            CoapCode.POST: self.handle_post,
        }
        handler = handlers.get(code)
        if handler is None:
            return (CoapCode.METHOD_NOT_ALLOWED, None, 0)
        return handler(payload)


class CallbackResource(Resource):
    """A resource backed by a plain callable — the quick way to expose
    a sensor reading."""

    def __init__(self, path: str,
                 on_get: Callable[[], Tuple[Any, int]]) -> None:
        super().__init__(path)
        self._on_get = on_get

    def handle_get(self, payload: Any) -> Tuple[CoapCode, Any, int]:
        value, size = self._on_get()
        return (CoapCode.CONTENT, value, size)
