"""Koala-style on-demand data retrieval (paper §IV-B, ref [30]).

Between pulls, nodes only sample into a local ring buffer — the radio
duty cycle stays at its idle floor.  A pull floods a request and nodes
unicast their buffered batches to the root, jittered across a response
window so the funnel does not collapse under the burst.  Combined with
aggregation this is the paper's recipe against border-router-vicinity
load.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Optional, Set, Tuple

from repro.devices.node import DeviceNode
from repro.sim.timers import PeriodicTimer

#: Service port.
PULL_PORT = 9904
#: Samples a node's ring buffer keeps (read when a service is built; a
#: test patches it).
BUFFER_SIZE = 64


@dataclass(frozen=True)
class PullRequest:
    """Flooded request: send me your last ``max_samples`` samples."""

    pull_id: int
    field_name: str
    max_samples: int
    response_window_s: float

    SIZE_BYTES = 10

    @property
    def size_bytes(self) -> int:
        return self.SIZE_BYTES


@dataclass(frozen=True)
class PullBatch:
    """One node's buffered samples."""

    pull_id: int
    node: int
    samples: Tuple[float, ...]

    @property
    def size_bytes(self) -> int:
        return 6 + 4 * len(self.samples)


@dataclass
class PullResult:
    """Everything one pull retrieved."""

    pull_id: int
    batches: Dict[int, Tuple[float, ...]] = field(default_factory=dict)
    completed_at: float = 0.0

    @property
    def node_count(self) -> int:
        return len(self.batches)

    @property
    def sample_count(self) -> int:
        return sum(len(samples) for samples in self.batches.values())


class KoalaPullService:
    """Buffer-locally, pull-on-demand retrieval agent."""

    def __init__(self, node: DeviceNode, root_id: int) -> None:
        self.node = node
        self.stack = node.stack
        self.sim = node.sim
        self.trace = self.stack.trace
        self.root_id = root_id
        self.buffer: Deque[float] = deque(maxlen=BUFFER_SIZE)
        self._seen_pulls: Set[int] = set()
        self._sampler: Optional[PeriodicTimer] = None
        self._field = ""
        self.batches_sent = 0
        #: Root only: in-flight pulls.
        self._collecting: Dict[int, PullResult] = {}
        self._rng = self.sim.substream(f"koala.{node.node_id}")
        self.stack.bind(PULL_PORT, self._on_datagram)

    # ------------------------------------------------------------------
    # local sampling
    # ------------------------------------------------------------------
    def start_sampling(self, field_name: str, period_s: float) -> None:
        """Sample into the local buffer; no radio traffic involved."""
        self._field = field_name
        self._sampler = PeriodicTimer(
            self.sim, period_s, self._sample,
            phase=self._rng.uniform(0, period_s),
        )
        self._sampler.start()

    def _sample(self) -> None:
        if not self.node.alive:
            return
        sensor = self.node.sensors.get(self._field)
        if sensor is None:
            return
        value = sensor.read()
        if value is not None:
            self.buffer.append(value)

    # ------------------------------------------------------------------
    # pulling (root API)
    # ------------------------------------------------------------------
    def pull(
        self,
        field_name: str,
        max_samples: int = 16,
        response_window_s: float = 60.0,
        on_complete: Optional[Callable[[PullResult], None]] = None,
    ) -> int:
        """Root: retrieve buffered samples from every reachable node."""
        if not self.node.is_root:
            raise RuntimeError("pulls are issued by the root")
        request = PullRequest(
            pull_id=self.sim.next_id("agg.pull"),
            field_name=field_name,
            max_samples=max_samples,
            response_window_s=response_window_s,
        )
        result = PullResult(pull_id=request.pull_id)
        self._collecting[request.pull_id] = result
        self._seen_pulls.add(request.pull_id)
        self.stack.send_local_broadcast(PULL_PORT, request, request.size_bytes)

        def finish() -> None:
            result.completed_at = self.sim.now
            self._collecting.pop(request.pull_id, None)
            self.trace.emit(self.sim.now, "koala.pull_done",
                            node=self.node.node_id,
                            nodes=result.node_count,
                            samples=result.sample_count)
            if on_complete is not None:
                on_complete(result)

        self.sim.schedule(response_window_s * 1.2, finish)
        return request.pull_id

    # ------------------------------------------------------------------
    def _on_datagram(self, datagram: Any) -> None:
        payload = datagram.payload
        if isinstance(payload, PullRequest):
            self._handle_request(payload)
        elif isinstance(payload, PullBatch):
            result = self._collecting.get(payload.pull_id)
            if result is not None:
                result.batches[payload.node] = payload.samples

    def _handle_request(self, request: PullRequest) -> None:
        if request.pull_id in self._seen_pulls:
            return
        self._seen_pulls.add(request.pull_id)
        # Continue the flood.
        self.sim.schedule(
            self._rng.uniform(0.1, 1.5),
            lambda: self.stack.send_local_broadcast(
                PULL_PORT, request, request.size_bytes
            ),
        )
        if self.node.is_root:
            return
        samples = tuple(list(self.buffer)[-request.max_samples:])
        batch = PullBatch(
            pull_id=request.pull_id, node=self.node.node_id, samples=samples
        )

        def respond() -> None:
            if not self.node.alive:
                return
            self.batches_sent += 1
            self.stack.send_datagram(
                self.root_id, PULL_PORT, batch, batch.size_bytes
            )

        self.sim.schedule(
            self._rng.uniform(1.0, request.response_window_s), respond
        )
