"""Link-layer frame authentication.

Mirrors 802.15.4 security level 2 (MIC-32/64/128): every outgoing DATA
frame gains a message integrity code of ``mic_bytes``; the receiving
MAC's ``frame_filter`` rejects frames whose tag does not verify under a
shared key.  Tags are modelled (a hash over key and frame identity), not
computed cryptographically — what the experiments need is the byte
overhead, the energy, and the *possession* semantics, all preserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.net.mac.base import MacLayer
from repro.net.packet import FrameKind, MacFrame
from repro.security.keys import KeyStore
from repro.sim.mix import mix64


@dataclass(frozen=True)
class AuthConfig:
    """Security level selection."""

    #: MIC length: 4 (MIC-32), 8 (MIC-64), or 16 (MIC-128).
    mic_bytes: int = 4

    def validate(self) -> None:
        if self.mic_bytes not in (4, 8, 16):
            raise ValueError("mic_bytes must be 4, 8, or 16")


def compute_tag(key: int, src: int, seq: int) -> int:
    """The modelled MIC: deterministic in (key, frame identity)."""
    tag = 0
    for word in (key, src, seq):
        tag = mix64(tag + word)
    return tag & 0xFFFFFFFF


class FrameAuthenticator:
    """Installs authentication on one node's MAC."""

    def __init__(
        self,
        mac: MacLayer,
        keystore: KeyStore,
        config: Optional[AuthConfig] = None,
    ) -> None:
        self.mac = mac
        self.sim = mac.sim
        self.trace = mac.trace
        self.keystore = keystore
        self.config = config if config is not None else AuthConfig()
        self.config.validate()
        self.frames_tagged = 0
        self.frames_rejected = 0
        self.replays_rejected = 0
        #: Anti-replay: highest authenticated sequence seen per sender.
        #: Senders number frames monotonically, so an older-than-last
        #: sequence can only be a captured frame played back.
        self._last_seq: dict = {}
        self._enabled = False

    def enable(self) -> None:
        """Turn authentication on: outgoing frames carry the MIC,
        incoming unauthentic frames are dropped."""
        if self._enabled:
            return
        if not self.keystore.provisioned:
            raise RuntimeError(
                f"node {self.keystore.node_id} has no keys provisioned"
            )
        self._enabled = True
        self.mac.auth_overhead_bytes = self.config.mic_bytes
        self.mac.frame_filter = self._verify
        # Tag outgoing frames as they are built, in one construction.
        original_data_frame = self.mac.data_frame
        src = self.mac.radio.node_id

        def tagging_data_frame(job):
            key = self.keystore.key_for(job.dest)
            if key is None:
                return original_data_frame(job)
            self.frames_tagged += 1
            return MacFrame(
                kind=FrameKind.DATA, src=src, dst=job.dest, seq=job.seq,
                payload=_Authenticated(tag=compute_tag(key, src, job.seq),
                                       inner=job.payload),
                payload_bytes=job.payload_bytes, auth_bytes=job.auth_bytes,
                trace_ctx=job.ctx,
            )

        self.mac.data_frame = tagging_data_frame  # type: ignore[method-assign]

    # ------------------------------------------------------------------
    def _verify(self, frame: MacFrame) -> Optional[MacFrame]:
        payload = frame.payload
        if not isinstance(payload, _Authenticated):
            # Unauthenticated frame in a secured network: reject.
            self.frames_rejected += 1
            self.trace.emit(self.sim.now, "security.rejected",
                            node=self.mac.radio.node_id, src=frame.src,
                            reason="missing_tag")
            return None
        key = self.keystore.key_for(frame.src)
        if key is None or payload.tag != compute_tag(key, frame.src, frame.seq):
            self.frames_rejected += 1
            self.trace.emit(self.sim.now, "security.rejected",
                            node=self.mac.radio.node_id, src=frame.src,
                            reason="bad_tag")
            return None
        last = self._last_seq.get(frame.src)
        if last is not None and frame.seq <= last:
            self.frames_rejected += 1
            self.replays_rejected += 1
            self.trace.emit(self.sim.now, "security.rejected",
                            node=self.mac.radio.node_id, src=frame.src,
                            reason="replay")
            return None
        self._last_seq[frame.src] = frame.seq
        # Deliver an unwrapped view; the original frame object is shared
        # by every receiver of a broadcast and must stay intact.
        return MacFrame(
            kind=frame.kind, src=frame.src, dst=frame.dst, seq=frame.seq,
            payload=payload.inner, payload_bytes=frame.payload_bytes,
            auth_bytes=frame.auth_bytes,
        )


@dataclass(frozen=True, slots=True)
class _Authenticated:
    """Wrapper carrying the MIC alongside the protected payload."""

    tag: int
    inner: Any
