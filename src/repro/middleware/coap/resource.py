"""CoAP resources: the server-side programming model.

A :class:`Resource` answers REST methods; an :class:`ObservableResource`
additionally pushes state changes to registered observers (RFC 7641) —
the pattern industrial telemetry uses instead of polling.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

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

    def handle_put(self, payload: Any) -> Tuple[CoapCode, Any, int]:
        return (CoapCode.METHOD_NOT_ALLOWED, None, 0)

    def handle_post(self, payload: Any) -> Tuple[CoapCode, Any, int]:
        return (CoapCode.METHOD_NOT_ALLOWED, None, 0)

    def handle_delete(self, payload: Any) -> Tuple[CoapCode, Any, int]:
        return (CoapCode.METHOD_NOT_ALLOWED, None, 0)

    def dispatch(self, code: CoapCode, payload: Any) -> Tuple[CoapCode, Any, int]:
        """Route a request method to its handler."""
        handlers = {
            CoapCode.GET: self.handle_get,
            CoapCode.PUT: self.handle_put,
            CoapCode.POST: self.handle_post,
            CoapCode.DELETE: self.handle_delete,
        }
        handler = handlers.get(code)
        if handler is None:
            return (CoapCode.METHOD_NOT_ALLOWED, None, 0)
        return handler(payload)


class CallbackResource(Resource):
    """A resource backed by plain callables — the quick way to expose
    a sensor reading or accept an actuator command."""

    def __init__(
        self,
        path: str,
        on_get: Optional[Callable[[], Tuple[Any, int]]] = None,
        on_put: Optional[Callable[[Any], bool]] = None,
    ) -> None:
        super().__init__(path)
        self._on_get = on_get
        self._on_put = on_put

    def handle_get(self, payload: Any) -> Tuple[CoapCode, Any, int]:
        if self._on_get is None:
            return (CoapCode.METHOD_NOT_ALLOWED, None, 0)
        value, size = self._on_get()
        return (CoapCode.CONTENT, value, size)

    def handle_put(self, payload: Any) -> Tuple[CoapCode, Any, int]:
        if self._on_put is None:
            return (CoapCode.METHOD_NOT_ALLOWED, None, 0)
        return (
            (CoapCode.CHANGED, None, 0)
            if self._on_put(payload)
            else (CoapCode.BAD_REQUEST, None, 0)
        )


class ObservableResource(Resource):
    """A resource whose state changes are pushed to observers.

    The server wires :attr:`notify_hook`; user code calls
    :meth:`update` when the underlying state changes.
    """

    def __init__(self, path: str, initial: Any = None, size_bytes: int = 4) -> None:
        super().__init__(path)
        self.state = initial
        self.size_bytes = size_bytes
        self.sequence = 0
        #: (observer node, token) registrations.
        self.observers: List[Tuple[int, int]] = []
        #: Installed by the server: (self) -> None, sends notifications.
        self.notify_hook: Optional[Callable[["ObservableResource"], None]] = None

    def handle_get(self, payload: Any) -> Tuple[CoapCode, Any, int]:
        return (CoapCode.CONTENT, self.state, self.size_bytes)

    def update(self, state: Any, size_bytes: Optional[int] = None) -> None:
        """Change the state and notify every observer."""
        self.state = state
        if size_bytes is not None:
            self.size_bytes = size_bytes
        self.sequence += 1
        if self.notify_hook is not None:
            self.notify_hook(self)

    def add_observer(self, node: int, token: int) -> None:
        key = (node, token)
        if key not in self.observers:
            self.observers.append(key)

    def remove_observer(self, node: int, token: int) -> None:
        key = (node, token)
        if key in self.observers:
            self.observers.remove(key)
